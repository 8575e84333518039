package mwu

import (
	"context"

	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestFactoryNames(t *testing.T) {
	for _, name := range Names {
		l, err := NewLearner(Config{Algorithm: name, K: 100}, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Name() != name {
			t.Fatalf("learner name %q != %q", l.Name(), name)
		}
		if l.K() != 100 {
			t.Fatalf("%s: K = %d", name, l.K())
		}
	}
}

func TestFactoryUnknown(t *testing.T) {
	if _, err := NewLearner(Config{Algorithm: "bogus", K: 10}, rng.New(1)); err == nil {
		t.Fatal("unknown learner accepted")
	}
}

func TestFactoryStandardAgentScaling(t *testing.T) {
	// Standard's agent count floors at 16 and tracks ceil(0.05k) above
	// that, matching Slate's slate size for comparability (Sec. IV-B).
	small := mustLearner(t, Config{Algorithm: "standard", K: 64}, rng.New(1))
	if small.Agents() != 16 {
		t.Fatalf("agents(64) = %d, want floor 16", small.Agents())
	}
	big := mustLearner(t, Config{Algorithm: "standard", K: 16384}, rng.New(1))
	if big.Agents() != 820 { // ceil(0.05·16384)
		t.Fatalf("agents(16384) = %d, want 820", big.Agents())
	}
	slate := mustLearner(t, Config{Algorithm: "slate", K: 16384}, rng.New(1))
	if slate.Agents() != big.Agents() {
		t.Fatalf("standard %d and slate %d agents should match at scale", big.Agents(), slate.Agents())
	}
}

func TestFactoryDistributedIntractable(t *testing.T) {
	if _, err := NewLearner(Config{Algorithm: "distributed", K: 16384}, rng.New(1)); err == nil {
		t.Fatal("distributed at 16384 should be intractable")
	}
}

func TestRunDefaultsMaxIter(t *testing.T) {
	// MaxIter 0 must default to 10000, not loop forever or zero times.
	p := bandit.NewProblem(dist.New("easy", []float64{0.05, 0.95}))
	seed := rng.New(9)
	l := NewStandard(StandardConfig{K: 2, Agents: 4, Eta: 0.3}, seed.Split())
	res := Run(context.Background(), l, p, seed.Split(), RunConfig{Workers: 1})
	if !res.Converged {
		t.Fatalf("easy problem did not converge in default budget (%d iters)", res.Iterations)
	}
}

func TestEvaluatorSlotStreamsStable(t *testing.T) {
	// The evaluator must assign stream i to slot i regardless of how many
	// slots are probed per call: growing the assignment size must not
	// reshuffle earlier slots' streams.
	o := &bandit.FuncOracle{K: 4, F: func(arm int, r *rng.RNG) float64 {
		return float64(r.Uint64() % 2)
	}}
	mk := func(sizes []int) [][]float64 {
		ev := newEvaluator(o, rng.New(7), 2)
		defer ev.close()
		var out [][]float64
		for _, n := range sizes {
			arms := make([]int, n)
			r, _ := ev.probeAll(0, arms)
			out = append(out, append([]float64(nil), r...))
		}
		return out
	}
	a := mk([]int{2, 4})
	b := mk([]int{2, 4})
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("evaluator streams not reproducible")
			}
		}
	}
}

func TestMetricsMeanCongestion(t *testing.T) {
	var m Metrics
	if m.MeanCongestion() != 0 {
		t.Fatal("empty metrics congestion should be 0")
	}
	m.recordIteration(4, 10, 4)
	m.recordIteration(4, 20, 4)
	if m.MeanCongestion() != 15 {
		t.Fatalf("mean congestion = %v", m.MeanCongestion())
	}
	if m.MaxCongestion != 20 {
		t.Fatalf("max congestion = %d", m.MaxCongestion)
	}
	if m.String() == "" {
		t.Fatal("metrics string empty")
	}
}

// mustLearner is NewLearner for a known-good configuration; it fails the
// test on error.
func mustLearner(tb testing.TB, cfg Config, r *rng.RNG) Learner {
	tb.Helper()
	l, err := NewLearner(cfg, r)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// mustDistributed is NewDistributed for a tractable configuration; it
// fails the test on error.
func mustDistributed(tb testing.TB, cfg DistributedConfig, r *rng.RNG) *Distributed {
	tb.Helper()
	d, err := NewDistributed(cfg, r)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}
