package mwu

import (
	"context"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

// runPriced drives one learner over a synthetic bandit with congestion
// pricing on and returns the result.
func runPriced(t *testing.T, alg string, lambda float64, workers int) RunResult {
	t.Helper()
	seed := rng.New(55)
	l := mustLearner(t, Config{Algorithm: alg, K: 16}, seed.Split())
	p := bandit.NewProblem(dist.Random("cost", 16, rng.New(3)))
	return Run(context.Background(), l, p, seed.Split(), RunConfig{
		MaxIter: 60, Workers: workers, CongestionLambda: lambda,
	})
}

// TestCongestionCostWorkerInvariant pins the adversarial cost accounting
// to the per-cycle arm vector, which is worker-count invariant: the
// totals must not move with Workers, must price every probe at least one
// unit, and must stay zero when λ is unset.
func TestCongestionCostWorkerInvariant(t *testing.T) {
	for _, alg := range Names {
		base := runPriced(t, alg, 0.5, 1)
		if base.CongestionCost == 0 || base.MaxLoad < 1 {
			t.Fatalf("%s: cost=%v maxload=%d with λ=0.5", alg, base.CongestionCost, base.MaxLoad)
		}
		for _, workers := range []int{4, 7} {
			got := runPriced(t, alg, 0.5, workers)
			if got.CongestionCost != base.CongestionCost || got.MaxLoad != base.MaxLoad {
				t.Fatalf("%s: totals vary with Workers=%d: cost %v vs %v, load %d vs %d",
					alg, workers, got.CongestionCost, base.CongestionCost, got.MaxLoad, base.MaxLoad)
			}
		}
		if free := runPriced(t, alg, 0, 4); free.CongestionCost != 0 || free.MaxLoad != 0 {
			t.Fatalf("%s: λ=0 accounted congestion: %v/%d", alg, free.CongestionCost, free.MaxLoad)
		}
	}
}

// TestCongestionCostFloor checks the λ→0 limit analytically: with λ=0
// the price would be exactly one unit per probe, so any λ>0 total must
// be ≥ the probe count, with equality only if no two agents ever shared
// an arm.
func TestCongestionCostFloor(t *testing.T) {
	res := runPriced(t, "standard", 1.0, 2)
	m := int64(res.Iterations) // standard issues Agents() probes per cycle
	if m == 0 {
		t.Fatal("no iterations")
	}
	if res.CongestionCost < float64(m) {
		t.Fatalf("cost %v below one unit per cycle across %d cycles", res.CongestionCost, m)
	}
	// 16 agents over 16 arms must collide somewhere in 60 cycles.
	if res.MaxLoad < 2 {
		t.Fatalf("max load %d; expected at least one collision", res.MaxLoad)
	}
}
