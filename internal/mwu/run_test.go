package mwu

import (
	"context"

	"sync/atomic"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

// TestRunDeterministicAcrossWorkerCounts asserts the paper's
// reproducibility property end to end: with a fixed seed, Run produces
// bit-identical results at any worker count, because rewards depend only
// on (slot, call sequence) via the pre-split per-slot RNG streams — never
// on which persistent worker executed the slot.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, name := range Names {
		run := func(workers int) RunResult {
			seed := rng.New(42)
			l := mustLearner(t, Config{Algorithm: name, K: 64}, seed.Split())
			p := bandit.NewProblem(dist.Random("r", 64, rng.New(7)))
			return Run(context.Background(), l, p, seed.Split(), RunConfig{MaxIter: 300, Workers: workers})
		}
		serial := run(1)
		parallel := run(8)
		if serial != parallel {
			t.Errorf("%s: Workers=1 %+v != Workers=8 %+v", name, serial, parallel)
		}
	}
}

// scriptedLearner is a minimal Learner for driving Run's control flow and
// reward-ownership contracts from tests.
type scriptedLearner struct {
	m Metrics

	arms []int
	// convergeAfter marks Converged true once this many Update calls have
	// been consumed; 0 means never.
	convergeAfter int
	updates       int

	// retained keeps every rewards slice exactly as handed to Update, and
	// snapshots a private copy alongside; Run's ownership contract promises
	// the two never diverge.
	retained [][]float64
	copies   [][]float64
}

func (s *scriptedLearner) Name() string  { return "scripted" }
func (s *scriptedLearner) K() int        { return len(s.arms) }
func (s *scriptedLearner) Agents() int   { return len(s.arms) }
func (s *scriptedLearner) Sample() []int { return s.arms }
func (s *scriptedLearner) Update(arms []int, rewards []float64) {
	s.updates++
	s.retained = append(s.retained, rewards)
	s.copies = append(s.copies, append([]float64(nil), rewards...))
	s.m.recordIteration(len(arms), 0, 0)
}
func (s *scriptedLearner) Leader() int         { return 0 }
func (s *scriptedLearner) LeaderProb() float64 { return 1 }
func (s *scriptedLearner) Converged() bool {
	return s.convergeAfter > 0 && s.updates >= s.convergeAfter
}
func (s *scriptedLearner) Metrics() *Metrics { return &s.m }

// countingOracle returns a distinct reward on every probe so aliased
// slices are guaranteed to diverge from their snapshots. The counter is
// atomic because Run probes from several workers at once.
func countingOracle(k int) *bandit.FuncOracle {
	var n atomic.Int64
	return &bandit.FuncOracle{K: k, F: func(arm int, r *rng.RNG) bandit.Reward {
		return bandit.Reward(n.Add(1))
	}}
}

// TestRunReportsStopAndConvergeOnSameCycle is the regression test for the
// early-stop masking bug: when OnIteration's stop condition and the
// learner's convergence criterion are both met on the same update cycle,
// Run must report both flags rather than letting Converged short-circuit
// the callback.
func TestRunReportsStopAndConvergeOnSameCycle(t *testing.T) {
	l := &scriptedLearner{arms: []int{0, 1}, convergeAfter: 1}
	called := 0
	res := Run(context.Background(), l, countingOracle(2), rng.New(1), RunConfig{
		MaxIter: 50,
		Workers: 1,
		OnIteration: func(iter int, _ Learner) bool {
			called++
			return true // stop condition holds on the converging cycle
		},
	})
	if called != 1 {
		t.Fatalf("OnIteration ran %d times, want 1 (must run on the converging cycle)", called)
	}
	if !res.Stopped || !res.Converged {
		t.Fatalf("Stopped=%v Converged=%v, want both true", res.Stopped, res.Converged)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
}

// TestRunStopWithoutConvergence covers the plain early-stop path: the
// callback fires before convergence and only Stopped is set.
func TestRunStopWithoutConvergence(t *testing.T) {
	l := &scriptedLearner{arms: []int{0, 1}}
	res := Run(context.Background(), l, countingOracle(2), rng.New(1), RunConfig{
		MaxIter: 50,
		Workers: 1,
		OnIteration: func(iter int, _ Learner) bool {
			return iter == 3
		},
	})
	if !res.Stopped || res.Converged {
		t.Fatalf("Stopped=%v Converged=%v, want stopped only", res.Stopped, res.Converged)
	}
	if res.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", res.Iterations)
	}
}

// TestRunRewardsSafeToRetain is the regression test for the rewards-slice
// aliasing bug: probeAll used to hand the learner an internal buffer that
// the next iteration overwrote, silently corrupting any learner that
// retained it (Update's documented contract now passes ownership). Each
// retained slice must keep its original contents and have a backing array
// distinct from every other iteration's.
func TestRunRewardsSafeToRetain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		l := &scriptedLearner{arms: []int{0, 1, 2, 3}, convergeAfter: 6}
		Run(context.Background(), l, countingOracle(4), rng.New(1), RunConfig{MaxIter: 50, Workers: workers})
		if len(l.retained) != 6 {
			t.Fatalf("workers=%d: retained %d slices, want 6", workers, len(l.retained))
		}
		for i, got := range l.retained {
			want := l.copies[i]
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("workers=%d: iteration %d rewards overwritten: %v, snapshot %v",
						workers, i+1, got, want)
				}
			}
			if i > 0 && &got[0] == &l.retained[i-1][0] {
				t.Fatalf("workers=%d: iterations %d and %d share a backing array", workers, i, i+1)
			}
		}
	}
}
