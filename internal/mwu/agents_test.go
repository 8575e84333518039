package mwu

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/obs"
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

// TestMessagePassingFaultFreeMatchesSynchronous: with no injector,
// RunMessagePassing is Run on NewDistributed under the documented seed
// split (learner first, then probe streams), byte for byte: the same
// RunResult, the same Metrics field for field, and the same trace — conv
// and state lines included — apart from run_start's algo. The grid covers
// converging runs, runs that cannot converge (Plurality > 1) and a run
// cancelled mid-iteration.
func TestMessagePassingFaultFreeMatchesSynchronous(t *testing.T) {
	gap := []float64{0.15, 0.15, 0.15, 0.9, 0.15, 0.15, 0.15, 0.15}
	cases := []struct {
		name     string
		cfg      DistributedConfig
		values   []float64 // nil: a random problem over cfg.K arms
		seed     uint64
		maxIter  int
		cancelAt int // cancel the context at this probe; 0 never
		want     string
	}{
		{"gap", DistributedConfig{K: 8, PopSize: 400}, gap, 77, 500, 0, "converged"},
		{"random-default-pop", DistributedConfig{K: 64}, nil, 3, 600, 0, "converged"},
		{"flat-plurality", DistributedConfig{K: 5, PopSize: 150, Plurality: 1.01},
			[]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 2, 40, 0, "maxiter"},
		{"random-plurality", DistributedConfig{K: 8, PopSize: 90, Plurality: 1.5, Beta: 0.8}, nil, 11, 60, 0, "maxiter"},
		{"cancelled", DistributedConfig{K: 64, PopSize: 500}, nil, 40, 600, 500*7 + 13, "cancelled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(mp bool) (RunResult, Metrics, []byte) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				values := dist.Random(c.name, c.cfg.K, rng.New(c.seed+100))
				if c.values != nil {
					values = dist.New(c.name, c.values)
				}
				p := bandit.NewProblem(values)
				var o bandit.Oracle = p
				workers := 3
				if c.cancelAt > 0 {
					workers = 1 // the probe count below is sequential
					probes := 0
					o = &bandit.FuncOracle{K: c.cfg.K, F: func(arm int, r *rng.RNG) float64 {
						if probes++; probes == c.cancelAt {
							cancel()
						}
						return p.Probe(arm, r)
					}}
				}
				var buf bytes.Buffer
				tr := obs.New(obs.NewJSONL(&buf), obs.WithRun(c.name), obs.WithSample(3))
				seed := rng.New(c.seed)
				var res RunResult
				var m Metrics
				if mp {
					r, err := RunMessagePassing(ctx, c.cfg, o, seed, c.maxIter, nil, tr)
					if err != nil {
						t.Fatal(err)
					}
					res, m = r.RunResult, r.Metrics
				} else {
					d := mustDistributed(t, c.cfg, seed.Split())
					res = Run(ctx, d, o, seed.Split(), RunConfig{MaxIter: c.maxIter, Workers: workers, Trace: tr})
					m = *d.Metrics()
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				return res, m, buf.Bytes()
			}
			syncRes, syncM, syncTrace := run(false)
			mpRes, mpM, mpTrace := run(true)
			if got := runEndKind(syncRes); got != c.want {
				t.Fatalf("synchronous run ended %q after %d iterations, want %q", got, syncRes.Iterations, c.want)
			}
			if mpRes != syncRes {
				t.Errorf("results differ:\n mp   %+v\n sync %+v", mpRes, syncRes)
			}
			if mpM != syncM {
				t.Errorf("metrics differ:\n mp   %+v\n sync %+v", mpM, syncM)
			}
			const mpAlgo, syncAlgo = `"algo":"distributed-mp"`, `"algo":"distributed"`
			if n := bytes.Count(mpTrace, []byte(mpAlgo)); n != 1 {
				t.Fatalf("message-passing trace names its algo %d times, want once", n)
			}
			mpTrace = bytes.Replace(mpTrace, []byte(mpAlgo), []byte(syncAlgo), 1)
			if !bytes.Equal(mpTrace, syncTrace) {
				t.Errorf("traces differ beyond run_start's algo (%d vs %d bytes)", len(mpTrace), len(syncTrace))
			}
			for _, typ := range []string{`"type":"conv"`, `"type":"state"`} {
				if !bytes.Contains(syncTrace, []byte(typ)) {
					t.Errorf("trace has no %s line to compare", typ)
				}
			}
		})
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
