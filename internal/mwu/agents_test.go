package mwu

import (
	"context"

	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestMessagePassingConverges(t *testing.T) {
	values := []float64{0.1, 0.9, 0.1, 0.1}
	p := bandit.NewProblem(dist.New("gap", values))
	cfg := DistributedConfig{K: 4, PopSize: 200}
	res, err := RunMessagePassing(context.Background(), cfg, p, rng.New(1), 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if res.Choice != 1 {
		t.Fatalf("converged to %d, want 1", res.Choice)
	}
	if res.LeaderProb < 0.30 {
		t.Fatalf("plurality %v", res.LeaderProb)
	}
}

func TestMessagePassingIntractable(t *testing.T) {
	_, err := RunMessagePassing(context.Background(), DistributedConfig{K: 16384}, nil, rng.New(1), 10, nil, nil)
	if err == nil {
		t.Fatal("expected intractability error")
	}
}

func TestMessagePassingDeterministicUnderSeed(t *testing.T) {
	run := func() (int, int, bool) {
		p := bandit.NewProblem(dist.New("gap", []float64{0.2, 0.2, 0.85, 0.2}))
		res, err := RunMessagePassing(context.Background(), DistributedConfig{K: 4, PopSize: 120}, p, rng.New(42), 300, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Choice, res.Iterations, res.Converged
	}
	c1, i1, v1 := run()
	c2, i2, v2 := run()
	if c1 != c2 || i1 != i2 || v1 != v2 {
		t.Fatalf("non-deterministic: (%d,%d,%v) vs (%d,%d,%v)", c1, i1, v1, c2, i2, v2)
	}
}

func TestMessagePassingMetrics(t *testing.T) {
	p := bandit.NewProblem(dist.New("flat", []float64{0.5, 0.5, 0.5, 0.5, 0.5}))
	const pop, iters = 150, 20
	cfg := DistributedConfig{K: 5, PopSize: pop, Plurality: 1.01} // never converges
	res, err := RunMessagePassing(context.Background(), cfg, p, rng.New(2), iters, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Iterations != iters {
		t.Fatalf("iterations = %d", m.Iterations)
	}
	if m.CPUIterations != pop*iters {
		t.Fatalf("cpu-iterations = %d, want %d", m.CPUIterations, pop*iters)
	}
	// Roughly (1-μ) of agents send one observation query per iteration.
	wantMsgs := float64(pop*iters) * (1 - cfg.Mu)
	got := float64(m.MessagesSent)
	if got < 0.8*wantMsgs || got > 1.05*float64(pop*iters) {
		t.Fatalf("messages = %d, want ≈%v", m.MessagesSent, wantMsgs)
	}
	if m.MaxCongestion < 1 || m.MaxCongestion > 40 {
		t.Fatalf("congestion = %d out of plausible range", m.MaxCongestion)
	}
	// Oracle sees exactly one probe per agent per iteration.
	if p.TotalPulls() != pop*iters {
		t.Fatalf("oracle pulls = %d", p.TotalPulls())
	}
}

func TestMessagePassingMatchesSynchronousStatistically(t *testing.T) {
	// Both engines implement Fig. 3; on the same problem they should
	// converge to the same option and in a similar number of update
	// cycles (not identical — RNG stream structure differs).
	values := []float64{0.15, 0.15, 0.15, 0.9, 0.15, 0.15, 0.15, 0.15}
	mkProblem := func(s uint64) *bandit.Problem {
		return bandit.NewProblem(dist.New("gap", values))
	}
	cfg := DistributedConfig{K: 8, PopSize: 400}

	seed := rng.New(77)
	sync := mustDistributed(t, cfg, seed.Split())
	syncRes := Run(context.Background(), sync, mkProblem(1), seed.Split(), RunConfig{MaxIter: 500, Workers: 1})

	mpRes, err := RunMessagePassing(context.Background(), cfg, mkProblem(2), rng.New(78), 500, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !syncRes.Converged || !mpRes.Converged {
		t.Fatalf("sync converged=%v mp converged=%v", syncRes.Converged, mpRes.Converged)
	}
	if syncRes.Choice != 3 || mpRes.Choice != 3 {
		t.Fatalf("choices: sync=%d mp=%d, want 3", syncRes.Choice, mpRes.Choice)
	}
	// Iteration counts should be the same order of magnitude.
	ratio := float64(syncRes.Iterations) / float64(mpRes.Iterations)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("iteration counts diverge: sync=%d mp=%d", syncRes.Iterations, mpRes.Iterations)
	}
}

func TestMessagePassingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Many agents, adversarial flat rewards: the population is large and
	// no option ever wins, so the full iteration budget runs.
	p := bandit.NewProblem(dist.New("flat", []float64{0.5, 0.5, 0.5}))
	cfg := DistributedConfig{K: 3, PopSize: 2000, Plurality: 1.01}
	res, err := RunMessagePassing(context.Background(), cfg, p, rng.New(3), 30, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}
