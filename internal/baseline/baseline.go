// Package baseline implements the search-based APR algorithms MWRepair is
// compared against in Sec. IV-G of the paper: GenProg (a genetic algorithm
// over patches), RSRepair (random search with the same operators), and AE
// (deterministic single-edit enumeration with equivalence-based
// deduplication). jGenProg is GenProg run on the Java-profile scenarios;
// the harness makes that distinction.
//
// All baselines share MWRepair's mutation operator vocabulary
// (internal/mutation) and fitness function, so the explored search space
// is the same — the paper's condition for a fair comparison. Costs are
// reported in fitness evaluations (deduplicated mutants are free, which is
// precisely AE's adaptive-equivalence economy) and in serial latency:
// these tools evaluate candidates sequentially, whereas MWRepair's latency
// is its iteration count because each iteration's probes run in parallel.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/testsuite"
	"repro/internal/wrs"
)

// Result summarizes one baseline repair attempt.
type Result struct {
	// Algorithm is the baseline's name.
	Algorithm string
	// Repaired reports whether a full repair was found.
	Repaired bool
	// Patch is the repairing mutation set (nil if none).
	Patch []mutation.Mutation
	// FitnessEvals is the number of distinct test-suite executions.
	FitnessEvals int64
	// CacheHits counts candidate evaluations answered by the fitness
	// cache (AE's adaptive-equivalence economy made explicit).
	CacheHits int64
	// CandidatesTried counts candidate patches considered (including
	// duplicates resolved by the cache).
	CandidatesTried int64
	// Latency is the serial latency proxy: the number of sequential
	// evaluation steps the tool performed (== CandidatesTried for these
	// single-threaded searches).
	Latency int64
	// Generations counts GA generations (GenProg only).
	Generations int
}

// Config bounds a baseline run.
type Config struct {
	// MaxEvals caps fitness evaluations; 0 means 20000.
	MaxEvals int64
}

func (c *Config) fill() {
	if c.MaxEvals <= 0 {
		c.MaxEvals = 20000
	}
}

// The fixed search parameters of the baselines: GenProg's population,
// crossover and mutation probabilities, and the weighted-fitness
// multiplier for bug-inducing tests (GenProg uses 10).
const (
	popSize       = 40
	crossoverRate = 0.5
	mutationRate  = 0.5
	negWeight     = 10
)

// Problem bundles what every baseline needs.
type Problem struct {
	Program *lang.Program
	Suite   *testsuite.Suite
	// weights[i] is the fault-localization weight of statement i.
	weights []float64
	targets []int // statements with positive weight
	// targetAlias samples a position in targets proportionally to its
	// suspiciousness in O(1). Fault localization is fixed for the whole
	// run, the exact setting an alias table is built for; the baselines
	// draw one mutation per candidate, thousands of times per repair.
	targetAlias *wrs.Alias
	runner      *testsuite.Runner
}

// NewProblem builds the shared search state, including GenProg-style fault
// localization: statements executed only by failing (negative) tests get
// weight 1.0, statements executed by both get 0.1, all others 0.
func NewProblem(p *lang.Program, s *testsuite.Suite) *Problem {
	posCov := coverageOf(p, s.Positive)
	negCov := coverageOf(p, s.Negative)
	pr := &Problem{
		Program: p,
		Suite:   s,
		weights: make([]float64, p.Len()),
		runner:  testsuite.NewRunner(s),
	}
	for i := range pr.weights {
		switch {
		case negCov[i] && !posCov[i]:
			pr.weights[i] = 1.0
		case negCov[i] && posCov[i]:
			pr.weights[i] = 0.1
		}
		if pr.weights[i] > 0 {
			pr.targets = append(pr.targets, i)
		}
	}
	if len(pr.targets) > 0 {
		tw := make([]float64, len(pr.targets))
		for j, t := range pr.targets {
			tw[j] = pr.weights[t]
		}
		tab, err := wrs.NewAlias(tw)
		if err != nil {
			// tw holds only the strictly-positive fault weights — a
			// rejection here means the weighting scheme itself broke.
			panic(fmt.Sprintf("baseline: target weights unsampleable: %v", err))
		}
		pr.targetAlias = tab
	}
	return pr
}

func coverageOf(p *lang.Program, tests []testsuite.Test) []bool {
	cov := make([]bool, p.Len())
	c := lang.Compile(p)
	for _, tc := range tests {
		res := c.Run(lang.Options{Input: tc.Input, Trace: true, MaxSteps: tc.MaxSteps})
		for i, c := range res.Coverage {
			if c {
				cov[i] = true
			}
		}
	}
	return cov
}

// Targets returns the fault-localized statement indices.
func (pr *Problem) Targets() []int { return append([]int(nil), pr.targets...) }

// randomMutation draws one mutation targeting a fault-localized statement,
// weighted by suspiciousness. The target draw goes through the alias table
// (O(1) instead of a linear scan over the targets) and consumes exactly
// one variate, like the scan it replaced.
func (pr *Problem) randomMutation(r *rng.RNG) mutation.Mutation {
	if len(pr.targets) == 0 {
		panic("baseline: no fault-localized statements")
	}
	at := pr.targets[pr.targetAlias.Draw(r)]
	op := mutation.Ops[r.Intn(len(mutation.Ops))]
	m := mutation.Mutation{Op: op, At: at}
	if op != mutation.Delete {
		m.From = r.Intn(pr.Program.Len())
	}
	return m
}

// evaluate scores a patch.
func (pr *Problem) evaluate(patch []mutation.Mutation) testsuite.Fitness {
	return pr.runner.Eval(context.Background(), mutation.Apply(pr.Program, patch))
}
