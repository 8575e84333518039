package mwu

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// traceBytes runs one learner with the JSONL tracer on and returns the
// raw event stream. Fault injection is always armed so the trace carries
// fault/recover/stall events, the hardest part of the stream to keep
// worker-count invariant.
func traceBytes(t *testing.T, alg string, workers int, managed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONL(&buf), obs.WithRun("det"), obs.WithSample(3))
	seed := rng.New(1234)
	l := mustLearner(t, Config{Algorithm: alg, K: 32}, seed.Split())
	p := bandit.NewProblem(dist.Random("det", 32, rng.New(9)))
	cfg := RunConfig{
		MaxIter: 120,
		Workers: workers,
		Faults:  faults.New(faults.Uniform(777, 0.12)),
		Trace:   tr,
	}
	if managed {
		cfg.Policies = faults.DefaultPolicies()
		cfg.StragglerCutoff = 60
	}
	Run(context.Background(), l, p, seed.Split(), cfg)
	if err := tr.Close(); err != nil {
		t.Fatalf("closing tracer: %v", err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalAcrossWorkerCounts is the determinism guarantee
// of DESIGN.md §11 asserted end to end: with a fixed seed, the JSONL
// event stream is byte-identical at any -workers count, in both raw and
// managed fault modes, because every event is emitted from the driver
// goroutine after the iteration barrier, in slot order, with virtual
// ticks instead of wall-clock times.
func TestTraceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, alg := range Names {
		for _, managed := range []bool{false, true} {
			mode := "raw"
			if managed {
				mode = "managed"
			}
			serial := traceBytes(t, alg, 1, managed)
			if n, err := obs.ValidateJSONL(bytes.NewReader(serial)); err != nil {
				t.Fatalf("%s/%s: invalid trace: %v", alg, mode, err)
			} else if n == 0 {
				t.Fatalf("%s/%s: empty trace", alg, mode)
			}
			for _, workers := range []int{4, 7} {
				got := traceBytes(t, alg, workers, managed)
				if !bytes.Equal(serial, got) {
					t.Errorf("%s/%s: trace at Workers=%d differs from Workers=1 (%d vs %d bytes)",
						alg, mode, workers, len(got), len(serial))
				}
			}
		}
	}
}

// TestMessagePassingTraceDeterministic pins the message-passing engine's
// event stream (crash/restart/update/state events) to its seed: two
// identical configurations must emit identical bytes. This is what the
// agents.go restart loop's agent-ID ordering (rather than map iteration
// order) buys.
func TestMessagePassingTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := obs.New(obs.NewJSONL(&buf), obs.WithRun("mp"), obs.WithSample(5))
		cfg := DistributedConfig{
			K:      16,
			Faults: faults.New(faults.Uniform(5, 0.1)),
			Trace:  tr,
		}
		p := bandit.NewProblem(dist.Random("mp", 16, rng.New(21)))
		if _, err := RunMessagePassing(context.Background(), cfg, p, rng.New(3), 300); err != nil {
			t.Fatalf("RunMessagePassing: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("closing tracer: %v", err)
		}
		return buf.Bytes()
	}
	first := run()
	if n, err := obs.ValidateJSONL(bytes.NewReader(first)); err != nil || n == 0 {
		t.Fatalf("invalid trace (%d events): %v", n, err)
	}
	if second := run(); !bytes.Equal(first, second) {
		t.Errorf("identical seeds produced different traces (%d vs %d bytes)", len(first), len(second))
	}
}

// TestOnIterationObservationFreshUnderFaults drives OnIteration callbacks
// that read Weights(), Popularity(), Leader() and LeaderProb() every
// cycle with 8 probe workers and fault injection on — the observability
// access pattern the tracer's state sampling uses. Under -race this
// proves the reads don't race with the probe pool; the Popularity
// cross-check proves Distributed's cached leader is never stale, for
// every d.counts mutation site (Update on the clean run, UpdateMissing on
// the faulted ones).
func TestOnIterationObservationFreshUnderFaults(t *testing.T) {
	modes := []struct {
		name    string
		rate    float64
		managed bool
	}{
		{"clean", 0, false},
		{"raw-faults", 0.15, false},
		{"managed-faults", 0.15, true},
	}
	for _, alg := range Names {
		for _, m := range modes {
			t.Run(alg+"/"+m.name, func(t *testing.T) {
				seed := rng.New(99)
				l := mustLearner(t, Config{Algorithm: alg, K: 24}, seed.Split())
				p := bandit.NewProblem(dist.Random("fresh", 24, rng.New(11)))
				cfg := RunConfig{MaxIter: 150, Workers: 8}
				if m.rate > 0 {
					cfg.Faults = faults.New(faults.Uniform(42, m.rate))
				}
				if m.managed {
					cfg.Policies = faults.DefaultPolicies()
					cfg.StragglerCutoff = 40
				}
				calls := 0
				cfg.OnIteration = func(iter int, l Learner) bool {
					calls++
					if w, ok := l.(interface{ Weights() []float64 }); ok {
						sum := 0.0
						for _, v := range w.Weights() {
							sum += v
						}
						if sum <= 0 {
							t.Errorf("iter %d: non-positive weight mass %g", iter, sum)
						}
					}
					if d, ok := l.(interface{ Popularity() []int }); ok {
						counts := d.Popularity()
						best := 0
						for i, c := range counts {
							if c > counts[best] {
								best = i
							}
						}
						if got := l.Leader(); got != best {
							t.Errorf("iter %d: cached Leader()=%d, fresh scan=%d", iter, got, best)
						}
					} else if l.Leader() < 0 || l.Leader() >= l.K() {
						t.Errorf("iter %d: leader out of range", iter)
					}
					if pr := l.LeaderProb(); pr < 0 || pr > 1 {
						t.Errorf("iter %d: LeaderProb %g outside [0,1]", iter, pr)
					}
					return false
				}
				Run(context.Background(), l, p, seed.Split(), cfg)
				if calls == 0 {
					t.Fatal("OnIteration never ran")
				}
			})
		}
	}
}
