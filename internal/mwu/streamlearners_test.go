package mwu

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/wrs"
)

// streamAlgs are the learners built on the wrs stream API.
var streamAlgs = []string{"optimistic", "congestion"}

func TestStreamLearnersConverge(t *testing.T) {
	for _, alg := range streamAlgs {
		t.Run(alg, func(t *testing.T) {
			p := bandit.NewProblem(dist.New("gap", []float64{0.2, 0.2, 0.9, 0.3}))
			l := MustNewLearner(Config{Algorithm: alg, K: 4}, rng.New(3))
			res := Run(context.Background(), l, p, rng.New(4), RunConfig{MaxIter: 5000, Workers: 4})
			if !res.Converged {
				t.Fatalf("did not converge in %d iterations (leader %d p=%.3f)",
					res.Iterations, res.Choice, res.LeaderProb)
			}
			if res.Choice != 2 {
				t.Fatalf("converged to arm %d, want 2", res.Choice)
			}
		})
	}
}

// TestStreamLearnersConvergeLargeK checks convergence holds at a scale
// where many agents share the weight vector — the regime the congestion
// learner's load-shared gains could plateau in.
func TestStreamLearnersConvergeLargeK(t *testing.T) {
	for _, alg := range streamAlgs {
		t.Run(alg, func(t *testing.T) {
			p := bandit.NewProblem(dist.Random("r", 256, rng.New(12)))
			l := MustNewLearner(Config{Algorithm: alg, K: 256}, rng.New(13))
			res := Run(context.Background(), l, p, rng.New(14), RunConfig{MaxIter: 10000, Workers: 8})
			if !res.Converged {
				t.Fatalf("did not converge in %d iterations (p=%.3f)", res.Iterations, res.LeaderProb)
			}
			if acc := p.Accuracy(res.Choice); acc < 90 {
				t.Fatalf("converged to arm %d (accuracy %.1f%%, best arm %d)", res.Choice, acc, p.Best())
			}
		})
	}
}

// TestStreamRunWorkerInvariance pins the stream path's determinism at the
// Run level: the same seeds must produce identical results at any worker
// count, because every slot's draw rides its own stream.
func TestStreamRunWorkerInvariance(t *testing.T) {
	for _, alg := range streamAlgs {
		t.Run(alg, func(t *testing.T) {
			run := func(workers int) RunResult {
				p := bandit.NewProblem(dist.Random("r", 64, rng.New(21)))
				l := MustNewLearner(Config{Algorithm: alg, K: 64}, rng.New(22))
				return Run(context.Background(), l, p, rng.New(23), RunConfig{MaxIter: 2000, Workers: workers})
			}
			base := run(1)
			for _, workers := range []int{2, 4, 7} {
				if got := run(workers); got != base {
					t.Fatalf("Workers=%d result %+v != Workers=1 %+v", workers, got, base)
				}
			}
		})
	}
}

// TestStreamSampleMatchesDriverPath checks the legacy Sample() entry point
// consumes exactly the variates the driver's concurrent stream path does:
// freezing the same learner state twice must yield the same assignment.
func TestStreamSampleMatchesDriverPath(t *testing.T) {
	for _, alg := range streamAlgs {
		t.Run(alg, func(t *testing.T) {
			a := MustNewLearner(Config{Algorithm: alg, K: 32}, rng.New(31))
			b := MustNewLearner(Config{Algorithm: alg, K: 32}, rng.New(31))
			arms := a.Sample()
			s, err := b.(StreamSampler).FreezeSampler()
			if err != nil {
				t.Fatal(err)
			}
			for i := range arms {
				if got := s.Stream(i).Draw(); got != arms[i] {
					t.Fatalf("slot %d: stream draw %d != Sample %d", i, got, arms[i])
				}
			}
		})
	}
}

// TestOptimisticUpdateRule checks the exponential optimistic step against
// the closed form: w ← w·exp(η(2g − g_prev)), g_prev starting at 0.
func TestOptimisticUpdateRule(t *testing.T) {
	o := NewOptimistic(OptimisticConfig{K: 3, Agents: 2, Eta: 0.1}, rng.New(1))
	o.Update([]int{0, 1}, []float64{1, 0})
	w := o.Weights()
	if want := math.Exp(0.1 * 2); math.Abs(w[0]-want) > 1e-12 {
		t.Errorf("w[0] = %v, want %v", w[0], want)
	}
	if want := math.Exp(0.1 * -2); math.Abs(w[1]-want) > 1e-12 {
		t.Errorf("w[1] = %v, want %v", w[1], want)
	}
	if w[2] != 1 {
		t.Errorf("untouched w[2] = %v", w[2])
	}
	// Second observation of arm 0, again a success: the optimistic step is
	// 2·1 − 1 = 1, i.e. the prediction absorbed half the move.
	prev := w[0]
	o.Update([]int{0}, []float64{1})
	if want := prev * math.Exp(0.1*1); math.Abs(o.Weights()[0]-want) > 1e-12 {
		t.Errorf("repeat w[0] = %v, want %v", o.Weights()[0], want)
	}
}

// TestCongestionUpdateRule checks the load-shared linear step: duplicated
// arms split their gain by the cycle's load, failures cost a full −ε.
func TestCongestionUpdateRule(t *testing.T) {
	c := NewCongestion(CongestionConfig{K: 3, Agents: 3, Epsilon: 0.1}, rng.New(1))
	c.Update([]int{0, 0, 1}, []float64{1, 1, 0})
	w := c.Weights()
	// Arm 0 carries load 2: each success gains 1/(1+0.25·1) = 4/5.
	factor := 1 + 0.1*(1/1.25)
	if want := factor * factor; math.Abs(w[0]-want) > 1e-12 {
		t.Errorf("w[0] = %v, want %v", w[0], want)
	}
	if want := 1 - 0.1; math.Abs(w[1]-want) > 1e-12 {
		t.Errorf("w[1] = %v, want %v", w[1], want)
	}
	if w[2] != 1 {
		t.Errorf("untouched w[2] = %v", w[2])
	}
	if got := c.Metrics().MaxCongestion; got != 2 {
		t.Errorf("MaxCongestion = %d, want 2 (the realized load)", got)
	}
}

// TestStreamLearnersUpdateMissing checks both learners skip missing slots:
// the affected arm's weight must not move.
func TestStreamLearnersUpdateMissing(t *testing.T) {
	for _, alg := range streamAlgs {
		t.Run(alg, func(t *testing.T) {
			l := MustNewLearner(Config{Algorithm: alg, K: 8}, rng.New(5))
			pu := l.(PartialUpdater)
			pu.UpdateMissing([]int{3, 5}, []float64{1, 0}, []bool{false, true})
			w := l.(interface{ Weights() []float64 }).Weights()
			if w[3] <= 1 {
				t.Errorf("arrived arm 3 did not gain: w = %v", w[3])
			}
			if w[5] != 1 {
				t.Errorf("missing arm 5 moved: w = %v", w[5])
			}
		})
	}
}

// failingSampler is a StreamSampler whose freeze fails after a fixed
// number of cycles — the invalid-weight-state path made scriptable.
type failingSampler struct {
	scriptedLearner
	failAfter int
	freezes   int
	sampler   *wrs.ConcurrentAlias
}

var errBadState = errors.New("weights went invalid")

func (f *failingSampler) FreezeSampler() (wrs.Forkable, error) {
	f.freezes++
	if f.freezes > f.failAfter {
		return nil, errBadState
	}
	if f.sampler == nil {
		f.sampler = wrs.NewConcurrentAlias(rng.New(1), len(f.arms))
	}
	w := make([]float64, f.K())
	for i := range w {
		w[i] = 1
	}
	if err := f.sampler.Reload(w); err != nil {
		return nil, err
	}
	return f.sampler, nil
}

// TestRunSurfacesFreezeError checks the driver threads a freeze failure
// into RunResult.Err instead of panicking: the run ends, the completed
// cycles stand, and Converged stays false.
func TestRunSurfacesFreezeError(t *testing.T) {
	l := &failingSampler{scriptedLearner: scriptedLearner{arms: []int{0, 1, 2}}, failAfter: 4}
	res := Run(context.Background(), l, countingOracle(3), rng.New(2), RunConfig{MaxIter: 100, Workers: 2})
	if !errors.Is(res.Err, errBadState) {
		t.Fatalf("RunResult.Err = %v, want wrapped errBadState", res.Err)
	}
	if res.Iterations != 4 {
		t.Fatalf("Iterations = %d, want the 4 completed cycles", res.Iterations)
	}
	if res.Converged {
		t.Fatal("errored run reported Converged")
	}
	if kind := runEndKind(res); kind != "error" {
		t.Fatalf("runEndKind = %q, want error", kind)
	}
}
