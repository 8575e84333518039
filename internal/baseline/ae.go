package baseline

import (
	"sort"

	"repro/internal/mutation"
	"repro/internal/rng"
)

// AE is the adaptive-equivalence baseline (Weimer et al.): a deterministic
// enumeration of single edits with semantically duplicate candidates
// collapsed so each equivalence class is tested once. Enumeration is
// repair-template-major — all deletions in decreasing suspiciousness
// order, then all replacements, insertions and swaps — reflecting the
// tool's prioritization of cheap, frequently-repairing edit classes. Our
// equivalence approximation is program identity after canonical
// serialization — distinct edits that produce the same mutant (e.g.
// deleting either twin of a duplicated statement) cost one evaluation,
// which is exactly the economy the runner's cache provides: FitnessEvals
// counts only distinct mutants while CandidatesTried counts every
// enumerated edit.
//
// AE searches the single-edit space only; multi-edit defects are outside
// its reach by design, which is the effectiveness gap the paper's
// comparison exposes.
func AE(pr *Problem, seed *rng.RNG, cfg Config) Result {
	cfg.fill()
	res := Result{Algorithm: "AE"}

	targets := pr.Targets()
	sort.SliceStable(targets, func(a, b int) bool {
		wa, wb := pr.weights[targets[a]], pr.weights[targets[b]]
		if wa != wb {
			return wa > wb
		}
		return targets[a] < targets[b]
	})

	n := pr.Program.Len()
	try := func(m mutation.Mutation) bool {
		res.CandidatesTried++
		if pr.evaluate([]mutation.Mutation{m}).Repair() {
			res.Repaired = true
			res.Patch = []mutation.Mutation{m}
		}
		return res.Repaired
	}
	budgetLeft := func() bool { return pr.runner.Evals() < cfg.MaxEvals }

	// Pass 1: deletions across all targets.
	for _, at := range targets {
		if !budgetLeft() || try(mutation.Mutation{Op: mutation.Delete, At: at}) {
			goto done
		}
	}
	// Passes 2–4: replace, insert, swap across (target, source).
	for _, op := range []mutation.Op{mutation.Replace, mutation.Insert, mutation.Swap} {
		for _, at := range targets {
			for from := 0; from < n; from++ {
				if !budgetLeft() || try(mutation.Mutation{Op: op, At: at, From: from}) {
					goto done
				}
			}
		}
	}
done:
	res.FitnessEvals = pr.runner.Evals()
	res.CacheHits = pr.runner.CacheHits()
	res.Latency = res.CandidatesTried
	return res
}
