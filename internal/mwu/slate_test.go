package mwu

import (
	"context"

	"math"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestSlateDefaults(t *testing.T) {
	s := NewSlate(SlateConfig{K: 100}, rng.New(1))
	if s.N() != 5 { // ceil(0.05 * 100)
		t.Fatalf("default slate size = %d, want 5", s.N())
	}
	if s.Agents() != s.N() {
		t.Fatalf("agents = %d, want slate size", s.Agents())
	}
	wantEta := 0.05 * 5.0 / 100.0
	if math.Abs(s.cfg.Eta-wantEta) > 1e-12 {
		t.Fatalf("eta = %v, want %v", s.cfg.Eta, wantEta)
	}
	if s.Metrics().MemoryFloats != 100 {
		t.Fatalf("memory = %d", s.Metrics().MemoryFloats)
	}
}

func TestSlateMinimumSize(t *testing.T) {
	s := NewSlate(SlateConfig{K: 10}, rng.New(1)) // ceil(0.5) = 1, bumped to 2
	if s.N() != 2 {
		t.Fatalf("slate size = %d, want min 2", s.N())
	}
}

func TestSlateSizeCappedAtK(t *testing.T) {
	s := NewSlate(SlateConfig{K: 3, N: 10}, rng.New(1))
	if s.N() != 3 {
		t.Fatalf("slate size = %d, want K", s.N())
	}
}

func TestSlateSampleDistinctOptions(t *testing.T) {
	s := NewSlate(SlateConfig{K: 20, N: 6}, rng.New(2))
	for i := 0; i < 200; i++ {
		arms := s.Sample()
		if len(arms) != 6 {
			t.Fatalf("slate size %d", len(arms))
		}
		seen := map[int]bool{}
		for _, a := range arms {
			if a < 0 || a >= 20 || seen[a] {
				t.Fatalf("invalid slate %v", arms)
			}
			seen[a] = true
		}
		// Feed neutral rewards so weights stay uniform.
		s.Update(arms, make([]float64, 6))
	}
}

func TestSlateUpdateOnlyTouchesSlateMembers(t *testing.T) {
	s := NewSlate(SlateConfig{K: 10, N: 3}, rng.New(3))
	arms := s.Sample()
	before := s.Weights()
	rewards := []float64{1, 0, 1}
	s.Update(arms, rewards)
	after := s.Weights()
	inSlate := map[int]bool{}
	for _, a := range arms {
		inSlate[a] = true
	}
	for i := range before {
		if !inSlate[i] && after[i] != before[i] {
			t.Fatalf("non-slate option %d weight changed: %v -> %v", i, before[i], after[i])
		}
	}
	// Rewarded slate members must have grown.
	if after[arms[0]] <= before[arms[0]] {
		t.Fatal("rewarded member did not grow")
	}
	// Unrewarded members are unchanged (exp(0) = 1).
	if after[arms[1]] != before[arms[1]] {
		t.Fatal("unrewarded member changed")
	}
}

func TestSlateImportanceWeighting(t *testing.T) {
	// A rare (low-marginal) option must receive a larger boost per success
	// than a common one: exp(η/m) is decreasing in m.
	s := NewSlate(SlateConfig{K: 4, N: 2, Gamma: 0.2}, rng.New(4))
	// Skew the weights so option 0 is pinned and option 3 is rare.
	s.weights = []float64{100, 1, 1, 1}
	arms := s.Sample()
	// Find a sample containing both 0 and some other option.
	for len(arms) != 2 || arms[0] != 0 {
		s.Update(arms, make([]float64, len(arms)))
		arms = s.Sample()
	}
	m0 := s.marginals[0]
	mOther := s.marginals[arms[1]]
	if m0 <= mOther {
		t.Fatalf("pinned option marginal %v should exceed rare %v", m0, mOther)
	}
}

func TestSlateLearnsBestArm(t *testing.T) {
	values := make([]float64, 30)
	for i := range values {
		values[i] = 0.2
	}
	values[17] = 0.95
	p := bandit.NewProblem(dist.New("gap", values))
	seed := rng.New(5)
	s := NewSlate(SlateConfig{K: 30, N: 5, Eta: 0.05}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 5000, Workers: 1})
	if res.Choice != 17 {
		t.Fatalf("learned arm %d, want 17", res.Choice)
	}
}

func TestSlateConvergenceCriterion(t *testing.T) {
	// With a huge value gap and aggressive η the leader gets pinned at the
	// cap and inclusion hits the max possible.
	values := []float64{0.02, 0.02, 0.98, 0.02, 0.02, 0.02}
	p := bandit.NewProblem(dist.New("gap", values))
	seed := rng.New(6)
	s := NewSlate(SlateConfig{K: 6, N: 2, Eta: 0.3}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 5000, Workers: 1})
	if !res.Converged {
		t.Fatalf("did not converge (leader inclusion %v, max %v)",
			s.LeaderInclusion(), s.maxInclusion())
	}
	if res.Choice != 2 {
		t.Fatalf("converged to %d", res.Choice)
	}
	// At convergence the leader's inclusion probability is within Tol of
	// the maximum possible.
	if s.maxInclusion()-s.LeaderInclusion() > s.cfg.Tol {
		t.Fatalf("inclusion %v not at max %v", s.LeaderInclusion(), s.maxInclusion())
	}
}

func TestSlateExplorationFloor(t *testing.T) {
	// Even with one dominant weight, every option keeps inclusion
	// probability at least γ·n/k.
	s := NewSlate(SlateConfig{K: 10, N: 2, Gamma: 0.1}, rng.New(7))
	s.weights[0] = 1e12
	s.Sample()
	floor := 0.1 * 2.0 / 10.0
	for i, m := range s.marginals {
		if m < floor-1e-9 {
			t.Fatalf("marginal[%d] = %v below floor %v", i, m, floor)
		}
	}
}

func TestSlateMetrics(t *testing.T) {
	p := bandit.NewProblem(dist.New("x", []float64{0.5, 0.5, 0.5, 0.5}))
	seed := rng.New(8)
	s := NewSlate(SlateConfig{K: 4, N: 2}, seed.Split())
	Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 20, Workers: 1})
	m := s.Metrics()
	if m.Iterations != 20 {
		t.Fatalf("iterations = %d", m.Iterations)
	}
	if m.Probes != 40 || m.CPUIterations != 40 {
		t.Fatalf("probes=%d cpu=%d", m.Probes, m.CPUIterations)
	}
	if m.MaxCongestion != 2 {
		t.Fatalf("congestion = %d, want slate size", m.MaxCongestion)
	}
}

func TestSlateOverflowGuard(t *testing.T) {
	// Reward one arm relentlessly with a large η; weights must rescale
	// rather than overflow.
	s := NewSlate(SlateConfig{K: 3, N: 2, Eta: 5}, rng.New(9))
	for i := 0; i < 5000; i++ {
		arms := s.Sample()
		rewards := make([]float64, len(arms))
		for j, a := range arms {
			if a == 0 {
				rewards[j] = 1
			}
		}
		s.Update(arms, rewards)
	}
	for i, w := range s.Weights() {
		if math.IsInf(w, 0) || math.IsNaN(w) {
			t.Fatalf("weight[%d] overflowed: %v", i, w)
		}
	}
	if s.Leader() != 0 {
		t.Fatalf("leader = %d", s.Leader())
	}
}

func TestSlateDeterministicUnderSeed(t *testing.T) {
	run := func() (int, int) {
		p := bandit.NewProblem(dist.Random("r", 40, rng.New(300)))
		seed := rng.New(10)
		s := NewSlate(SlateConfig{K: 40, N: 4}, seed.Split())
		res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 200, Workers: 1})
		return res.Choice, res.Iterations
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestSlatePanicsWithoutK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlate(SlateConfig{}, rng.New(1))
}

func TestSlateSamplerEquivalence(t *testing.T) {
	// The systematic sampler realizes the decomposition's per-option
	// inclusion probabilities (TestSystematicSampleMatchesDecompositionMarginals
	// in internal/simplex), so the learner must find the winning arm of an
	// easy instance.
	values := []float64{0.2, 0.2, 0.9, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2}
	wins := 0
	for seed := uint64(100); seed < 105; seed++ {
		p := bandit.NewProblem(dist.New("eq", values))
		s := NewSlate(SlateConfig{K: 10, N: 3, Eta: 0.1}, rng.New(seed))
		res := Run(context.Background(), s, p, rng.New(seed^0xF00), RunConfig{MaxIter: 8000, Workers: 1})
		if res.Converged && res.Choice == 2 {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("systematic slate sampler converged to the best arm in %d/5 runs", wins)
	}
}
