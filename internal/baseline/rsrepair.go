package baseline

import (
	"repro/internal/mutation"
	"repro/internal/rng"
)

// RSRepair is the random-search baseline (Qi et al.): it repeatedly draws
// a fresh small patch from the fault-localized operator space, evaluates
// it, and keeps nothing between trials. The paper classes it among the
// "naive random search that is parallel because no information is shared
// between threads" approaches; as a cost baseline it is run serially here,
// like the original tool.
func RSRepair(pr *Problem, seed *rng.RNG, cfg Config) Result {
	cfg.fill()
	res := Result{Algorithm: "RSRepair"}
	for pr.runner.Evals() < cfg.MaxEvals {
		// 1 or 2 edits per candidate, matching the tool's shallow search.
		n := 1 + seed.Intn(2)
		patch := make([]mutation.Mutation, n)
		for i := range patch {
			patch[i] = pr.randomMutation(seed)
		}
		res.CandidatesTried++
		if pr.evaluate(patch).Repair() {
			res.Repaired = true
			res.Patch = patch
			break
		}
	}
	res.FitnessEvals = pr.runner.Evals()
	res.CacheHits = pr.runner.CacheHits()
	res.Latency = res.CandidatesTried
	return res
}
