package mwu

import (
	"context"

	"errors"
	"math"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestDistributedDefaults(t *testing.T) {
	d := mustDistributed(t, DistributedConfig{K: 10}, rng.New(1))
	if d.cfg.Mu != 0.05 || d.cfg.Beta != 0.71 || d.cfg.Alpha != 0.01 || d.cfg.Plurality != 0.30 {
		t.Fatalf("defaults wrong: %+v", d.cfg)
	}
	if d.cfg.PopSize != DefaultPopSize(10, 0.71) {
		t.Fatalf("popsize = %d", d.cfg.PopSize)
	}
	if d.Metrics().MemoryFloats != 1 {
		t.Fatalf("memory = %d, want O(1)", d.Metrics().MemoryFloats)
	}
}

func TestDelta(t *testing.T) {
	if math.Abs(Delta(0.5)) > 1e-12 {
		t.Fatalf("Delta(0.5) = %v, want 0", Delta(0.5))
	}
	if Delta(0.9) <= 0 {
		t.Fatal("Delta(0.9) should be positive")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for beta=1")
		}
	}()
	Delta(1)
}

func TestDefaultPopSizeGrowsSuperlinearly(t *testing.T) {
	// With β = 0.71, 1/δ ≈ 1.117 > 1: doubling k should more than double
	// the population.
	p1 := DefaultPopSize(1024, 0.71)
	p2 := DefaultPopSize(2048, 0.71)
	if float64(p2) <= 2*float64(p1) {
		t.Fatalf("popsize not superlinear: %d -> %d", p1, p2)
	}
}

func TestDistributedIntractable(t *testing.T) {
	_, err := NewDistributed(DistributedConfig{K: 16384}, rng.New(1))
	var intract *ErrIntractable
	if !errors.As(err, &intract) {
		t.Fatalf("want ErrIntractable, got %v", err)
	}
	if intract.K != 16384 {
		t.Fatalf("error K = %d", intract.K)
	}
}

func TestDistributedTractableSizesMatchPaper(t *testing.T) {
	// The paper's Table II: Distributed handles sizes up to 4096 but the
	// two 16384 scenarios are intractable.
	for _, k := range []int{64, 256, 1024, 4096} {
		if _, err := NewDistributed(DistributedConfig{K: k}, rng.New(1)); err != nil {
			t.Fatalf("k=%d should be tractable: %v", k, err)
		}
	}
	if _, err := NewDistributed(DistributedConfig{K: 16384}, rng.New(1)); err == nil {
		t.Fatal("k=16384 should be intractable")
	}
}

func TestDistributedAlphaBetaOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha > beta")
		}
	}()
	mustDistributed(t, DistributedConfig{K: 4, PopSize: 100, Alpha: 0.9, Beta: 0.5}, rng.New(1))
}

func TestDistributedInitRoundRobin(t *testing.T) {
	d := mustDistributed(t, DistributedConfig{K: 4, PopSize: 100}, rng.New(2))
	pop := d.Popularity()
	for i, c := range pop {
		if c != 25 {
			t.Fatalf("option %d starts with %d holders, want 25", i, c)
		}
	}
}

func TestDistributedSampleMixesExploreAndObserve(t *testing.T) {
	d := mustDistributed(t, DistributedConfig{K: 50, PopSize: 10000, Mu: 0.5}, rng.New(3))
	arms := d.Sample()
	if len(arms) != 10000 {
		t.Fatalf("sample size %d", len(arms))
	}
	for _, a := range arms {
		if a < 0 || a >= 50 {
			t.Fatalf("invalid arm %d", a)
		}
	}
}

func TestDistributedAdoption(t *testing.T) {
	// β = 1, α = tiny: successful observations are always adopted.
	d := mustDistributed(t, DistributedConfig{K: 2, PopSize: 1000, Beta: 1, Alpha: 1e-12, Mu: 0.05}, rng.New(4))
	// Oracle: option 1 always succeeds, option 0 always fails.
	o := &bandit.FuncOracle{K: 2, F: func(arm int, r *rng.RNG) float64 {
		if arm == 1 {
			return 1
		}
		return 0
	}}
	seed := rng.New(5)
	ev := newEvaluator(o, seed, 1)
	for i := 0; i < 30; i++ {
		arms := d.Sample()
		rewards, _ := ev.probeAll(i, arms)
		d.Update(arms, rewards)
	}
	pop := d.Popularity()
	if pop[1] < 900 {
		t.Fatalf("winning option popularity %d/1000 after 30 rounds", pop[1])
	}
}

func TestDistributedConvergesToPlurality(t *testing.T) {
	values := []float64{0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1}
	p := bandit.NewProblem(dist.New("gap", values))
	seed := rng.New(6)
	d := mustDistributed(t, DistributedConfig{K: 8, PopSize: 800}, seed.Split())
	res := Run(context.Background(), d, p, seed.Split(), RunConfig{MaxIter: 500, Workers: 1})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (leader %d @ %v)",
			res.Iterations, res.Choice, res.LeaderProb)
	}
	if res.Choice != 2 {
		t.Fatalf("converged to %d, want 2", res.Choice)
	}
	if res.LeaderProb < 0.30 {
		t.Fatalf("plurality %v below threshold", res.LeaderProb)
	}
}

func TestDistributedCongestionIsSublinear(t *testing.T) {
	// Balls-into-bins: with n agents choosing among n neighbors, max
	// in-degree should be Θ(ln n / ln ln n), far below n.
	d := mustDistributed(t, DistributedConfig{K: 10, PopSize: 10000, Mu: 0.05}, rng.New(7))
	o := &bandit.FuncOracle{K: 10, F: func(int, *rng.RNG) float64 { return 0 }}
	seed := rng.New(8)
	ev := newEvaluator(o, seed, 1)
	for i := 0; i < 5; i++ {
		arms := d.Sample()
		rewards, _ := ev.probeAll(i, arms)
		d.Update(arms, rewards)
	}
	m := d.Metrics()
	if m.MaxCongestion > 60 { // ln(1e4)/lnln(1e4) ≈ 4.2; allow generous slack
		t.Fatalf("congestion %d too high for 10000 agents", m.MaxCongestion)
	}
	if m.MaxCongestion < 2 {
		t.Fatalf("congestion %d suspiciously low", m.MaxCongestion)
	}
}

func TestDistributedPopularityInvariant(t *testing.T) {
	// Popularity counts must always sum to the population size.
	p := bandit.NewProblem(dist.Random("r", 16, rng.New(400)))
	seed := rng.New(9)
	d := mustDistributed(t, DistributedConfig{K: 16, PopSize: 500}, seed.Split())
	ev := newEvaluator(p, seed.Split(), 1)
	for i := 0; i < 50; i++ {
		arms := d.Sample()
		rewards, _ := ev.probeAll(i, arms)
		d.Update(arms, rewards)
		total := 0
		for _, c := range d.Popularity() {
			total += c
		}
		if total != 500 {
			t.Fatalf("popularity sums to %d at iteration %d", total, i)
		}
	}
}

func TestDistributedDeterministicUnderSeed(t *testing.T) {
	run := func() (int, int) {
		p := bandit.NewProblem(dist.Random("r", 16, rng.New(500)))
		seed := rng.New(10)
		d := mustDistributed(t, DistributedConfig{K: 16, PopSize: 400}, seed.Split())
		res := Run(context.Background(), d, p, seed.Split(), RunConfig{MaxIter: 200, Workers: 1})
		return res.Choice, res.Iterations
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestDistributedMemorylessProperty(t *testing.T) {
	// The learner's state is exactly the choice vector: no weights exist.
	// Popularity is derived from choices; verify they agree.
	d := mustDistributed(t, DistributedConfig{K: 5, PopSize: 50}, rng.New(11))
	counts := make([]int, 5)
	for _, c := range d.choices {
		counts[c]++
	}
	pop := d.Popularity()
	for i := range counts {
		if counts[i] != pop[i] {
			t.Fatalf("derived counts %v != tracked %v", counts, pop)
		}
	}
}
