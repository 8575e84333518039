package mwu

import (
	"context"

	"math"
	"testing"
	"testing/quick"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestStandardDefaults(t *testing.T) {
	s := NewStandard(StandardConfig{K: 10}, rng.New(1))
	if s.Agents() != 16 {
		t.Fatalf("default agents = %d", s.Agents())
	}
	if s.K() != 10 {
		t.Fatalf("K = %d", s.K())
	}
	if s.Name() != "standard" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.Metrics().MemoryFloats != 10 {
		t.Fatalf("memory = %d, want k", s.Metrics().MemoryFloats)
	}
}

func TestStandardPanicsWithoutK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStandard(StandardConfig{}, rng.New(1))
}

func TestStandardInitialWeightsUniform(t *testing.T) {
	s := NewStandard(StandardConfig{K: 4}, rng.New(1))
	for i, w := range s.Weights() {
		if w != 1 {
			t.Fatalf("weight[%d] = %v", i, w)
		}
	}
	if p := s.LeaderProb(); math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("initial leader prob = %v", p)
	}
}

func TestStandardSampleRespectsWeights(t *testing.T) {
	s := NewStandard(StandardConfig{K: 3, Agents: 1000}, rng.New(2))
	// Manually skew the weights: option 1 should dominate samples.
	s.weights = []float64{0.01, 10, 0.01}
	s.sum = 10.02
	s.resync() // the draws descend the Fenwick tree, not s.weights
	arms := s.Sample()
	ones := 0
	for _, a := range arms {
		if a == 1 {
			ones++
		}
	}
	if ones < 990 {
		t.Fatalf("heavy option sampled %d/1000 times", ones)
	}
}

func TestStandardUpdateSignedCosts(t *testing.T) {
	s := NewStandard(StandardConfig{K: 2, Agents: 2, Eta: 0.1}, rng.New(3))
	s.Update([]int{0, 1}, []float64{0, 1})
	w := s.Weights()
	if math.Abs(w[0]-0.9) > 1e-12 {
		t.Fatalf("failed option weight = %v, want 0.9", w[0])
	}
	if math.Abs(w[1]-1.1) > 1e-12 {
		t.Fatalf("successful option weight = %v, want 1.1", w[1])
	}
}

func TestStandardUpdateMismatchPanics(t *testing.T) {
	s := NewStandard(StandardConfig{K: 2}, rng.New(4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Update([]int{0}, []float64{0, 1})
}

func TestStandardLearnsBestArm(t *testing.T) {
	// A clear gap: arm 3 succeeds 95% of the time, others 20%.
	values := []float64{0.2, 0.2, 0.2, 0.95, 0.2, 0.2}
	p := bandit.NewProblem(dist.New("gap", values))
	seed := rng.New(5)
	s := NewStandard(StandardConfig{K: 6, Agents: 8, Eta: 0.1}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 2000, Workers: 1})
	if res.Choice != 3 {
		t.Fatalf("learned arm %d, want 3 (leaderProb %v)", res.Choice, res.LeaderProb)
	}
}

func TestStandardConvergesOnEasyProblem(t *testing.T) {
	values := []float64{0.05, 0.9, 0.05, 0.05}
	p := bandit.NewProblem(dist.New("easy", values))
	seed := rng.New(6)
	s := NewStandard(StandardConfig{K: 4, Agents: 8, Eta: 0.2}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 5000, Workers: 1})
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (leaderProb %v)", res.Iterations, res.LeaderProb)
	}
	if res.Choice != 1 {
		t.Fatalf("converged to %d, want 1", res.Choice)
	}
}

func TestStandardMetricsAccounting(t *testing.T) {
	p := bandit.NewProblem(dist.New("x", []float64{0.5, 0.5}))
	seed := rng.New(7)
	s := NewStandard(StandardConfig{K: 2, Agents: 4}, seed.Split())
	Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 10, Workers: 1})
	m := s.Metrics()
	if m.Iterations == 0 || m.Iterations > 10 {
		t.Fatalf("iterations = %d", m.Iterations)
	}
	if m.Probes != int64(4*m.Iterations) {
		t.Fatalf("probes = %d, want %d", m.Probes, 4*m.Iterations)
	}
	if m.CPUIterations != int64(4*m.Iterations) {
		t.Fatalf("cpu-iterations = %d", m.CPUIterations)
	}
	if m.MaxCongestion != 4 {
		t.Fatalf("congestion = %d, want agents", m.MaxCongestion)
	}
	if p.TotalPulls() != m.Probes {
		t.Fatalf("oracle pulls %d != probes %d", p.TotalPulls(), m.Probes)
	}
}

func TestStandardDeterministicUnderSeed(t *testing.T) {
	run := func() (int, int) {
		p := bandit.NewProblem(dist.Random("r", 32, rng.New(100)))
		seed := rng.New(8)
		s := NewStandard(StandardConfig{K: 32, Agents: 8}, seed.Split())
		res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 300, Workers: 1})
		return res.Choice, res.Iterations
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestStandardParallelMatchesSequential(t *testing.T) {
	run := func(workers int) (int, int) {
		p := bandit.NewProblem(dist.Random("r", 32, rng.New(200)))
		seed := rng.New(9)
		s := NewStandard(StandardConfig{K: 32, Agents: 16}, seed.Split())
		res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 300, Workers: workers})
		return res.Choice, res.Iterations
	}
	c1, i1 := run(1)
	c2, i2 := run(8)
	if c1 != c2 || i1 != i2 {
		t.Fatalf("worker count changed results: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestStandardWeightUnderflowGuard(t *testing.T) {
	// Hammer one arm with failures long enough to trigger renormalization;
	// probabilities must stay finite and valid.
	s := NewStandard(StandardConfig{K: 2, Agents: 1, Eta: 0.5}, rng.New(10))
	arms := []int{0}
	rewards := []float64{0}
	for i := 0; i < 400000; i++ {
		s.Update(arms, rewards)
	}
	w := s.Weights()
	if math.IsNaN(w[0]) || math.IsInf(w[1], 0) || w[1] <= 0 {
		t.Fatalf("weights degenerate: %v", w)
	}
	if s.Leader() != 1 {
		t.Fatalf("leader = %d", s.Leader())
	}
	if p := s.LeaderProb(); !(p > 0.999) {
		t.Fatalf("leader prob = %v", p)
	}
}

func TestQuickStandardWeightsStayPositive(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%20 + 2
		p := bandit.NewProblem(dist.Random("r", k, rng.New(seed)))
		sd := rng.New(seed ^ 0xabc)
		s := NewStandard(StandardConfig{K: k, Agents: 4}, sd.Split())
		Run(context.Background(), s, p, sd.Split(), RunConfig{MaxIter: 100, Workers: 1})
		for _, w := range s.Weights() {
			if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
				return false
			}
		}
		lp := s.LeaderProb()
		return lp > 0 && lp <= 1
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunRespectsMaxIter(t *testing.T) {
	// An impossible problem (all arms identical) must stop at MaxIter.
	p := bandit.NewProblem(dist.New("flat", []float64{0.5, 0.5, 0.5}))
	seed := rng.New(11)
	s := NewStandard(StandardConfig{K: 3, Agents: 2}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{MaxIter: 50, Workers: 1})
	if res.Iterations != 50 || res.Converged {
		t.Fatalf("iterations = %d converged = %v", res.Iterations, res.Converged)
	}
}

func TestRunOnIterationStops(t *testing.T) {
	p := bandit.NewProblem(dist.New("flat", []float64{0.5, 0.5}))
	seed := rng.New(12)
	s := NewStandard(StandardConfig{K: 2, Agents: 2}, seed.Split())
	res := Run(context.Background(), s, p, seed.Split(), RunConfig{
		MaxIter: 1000,
		Workers: 1,
		OnIteration: func(iter int, l Learner) bool {
			return iter >= 7
		},
	})
	if !res.Stopped || res.Iterations != 7 {
		t.Fatalf("stopped=%v iterations=%d", res.Stopped, res.Iterations)
	}
}
