package baseline

import (
	"repro/internal/mutation"
	"repro/internal/rng"
)

// GenProg runs the genetic-programming repair search: a population of
// patches evolves under weighted test-case fitness with tournament
// selection, one-point crossover over edit lists, and mutation that
// appends a fresh fault-localized edit. This is the algorithm of Le Goues
// et al., restricted (like the paper) to the whole-statement operator set
// shared with MWRepair.
func GenProg(pr *Problem, seed *rng.RNG, cfg Config) Result {
	cfg.fill()
	res := Result{Algorithm: "GenProg"}

	type indiv struct {
		patch   []mutation.Mutation
		fitness float64
	}

	evalBudgetLeft := func() bool { return pr.runner.Evals() < cfg.MaxEvals }

	// Initial population: single random edits.
	pop := make([]indiv, popSize)
	for i := range pop {
		pop[i].patch = []mutation.Mutation{pr.randomMutation(seed)}
	}

	score := func(ind *indiv) bool {
		f := pr.evaluate(ind.patch)
		res.CandidatesTried++
		if f.Repair() {
			res.Repaired = true
			res.Patch = append([]mutation.Mutation(nil), ind.patch...)
			return true
		}
		ind.fitness = f.Weighted(negWeight)
		return false
	}

	tournament := func() indiv {
		a, b := pop[seed.Intn(len(pop))], pop[seed.Intn(len(pop))]
		if a.fitness >= b.fitness {
			return a
		}
		return b
	}

	for evalBudgetLeft() && !res.Repaired {
		res.Generations++
		for i := range pop {
			if score(&pop[i]) {
				break
			}
			if !evalBudgetLeft() {
				break
			}
		}
		if res.Repaired || !evalBudgetLeft() {
			break
		}
		// Breed the next generation.
		next := make([]indiv, 0, len(pop))
		for len(next) < len(pop) {
			p1, p2 := tournament(), tournament()
			var child []mutation.Mutation
			if seed.Float64() < crossoverRate && len(p1.patch) > 0 && len(p2.patch) > 0 {
				cut1 := seed.Intn(len(p1.patch) + 1)
				cut2 := seed.Intn(len(p2.patch) + 1)
				child = append(child, p1.patch[:cut1]...)
				child = append(child, p2.patch[cut2:]...)
			} else {
				child = append(child, p1.patch...)
			}
			if len(child) == 0 || seed.Float64() < mutationRate {
				child = append(child, pr.randomMutation(seed))
			}
			next = append(next, indiv{patch: child})
		}
		pop = next
	}
	res.FitnessEvals = pr.runner.Evals()
	res.CacheHits = pr.runner.CacheHits()
	res.Latency = res.CandidatesTried
	return res
}
