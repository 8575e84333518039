package mwu

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
)

// TestUpdateEqualsAllArrivedUpdateMissing guards the fold of every
// learner's Update into UpdateMissing: a learner driven by clean Update
// calls and its twin driven by UpdateMissing with an all-false missing
// slice draw the same arms and end every cycle in the same state —
// leader, leader share, convergence, metrics and weights (popularity for
// Distributed) — bit for bit.
func TestUpdateEqualsAllArrivedUpdateMissing(t *testing.T) {
	const k, cycles = 32, 200
	probs := make([]float64, k)
	pr := rng.New(41)
	for i := range probs {
		probs[i] = pr.Float64()
	}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			clean := mustLearner(t, Config{Algorithm: name, K: k}, rng.New(17))
			twin := mustLearner(t, Config{Algorithm: name, K: k}, rng.New(17))
			partial, ok := twin.(PartialUpdater)
			if !ok {
				t.Fatalf("%s does not implement PartialUpdater", name)
			}
			rr := rng.New(99)
			for c := 1; c <= cycles; c++ {
				arms, twinArms := clean.Sample(), twin.Sample()
				if !reflect.DeepEqual(arms, twinArms) {
					t.Fatalf("cycle %d: arms diverged", c)
				}
				rewards := make([]float64, len(arms))
				for j, a := range arms {
					if rr.Float64() < probs[a] {
						rewards[j] = 1
					}
				}
				clean.Update(arms, rewards)
				partial.UpdateMissing(arms, append([]float64(nil), rewards...), make([]bool, len(arms)))
				if err := sameLearnerState(clean, twin); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
			}
		})
	}
}

// sameLearnerState reports the first observable difference between two
// learners of the same realization.
func sameLearnerState(a, b Learner) error {
	if a.Leader() != b.Leader() {
		return fmt.Errorf("leader %d vs %d", a.Leader(), b.Leader())
	}
	if pa, pb := a.LeaderProb(), b.LeaderProb(); math.Float64bits(pa) != math.Float64bits(pb) {
		return fmt.Errorf("leader prob %v vs %v", pa, pb)
	}
	if a.Converged() != b.Converged() {
		return fmt.Errorf("converged %v vs %v", a.Converged(), b.Converged())
	}
	if *a.Metrics() != *b.Metrics() {
		return fmt.Errorf("metrics %+v vs %+v", *a.Metrics(), *b.Metrics())
	}
	switch wa := a.(type) {
	case interface{ Weights() []float64 }:
		if x, y := wa.Weights(), b.(interface{ Weights() []float64 }).Weights(); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("weights diverged")
		}
	case *Distributed:
		if x, y := wa.Popularity(), b.(*Distributed).Popularity(); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("popularity diverged")
		}
	default:
		return fmt.Errorf("%s exposes neither Weights nor Popularity", a.Name())
	}
	return nil
}

// TestNewLearnerRejectsRatesOutsideDomain: a Rate outside a realization's
// domain is a constructor error, never a panic — in the constructor or
// later in the run. Slate's γ must lie in (0,1], Distributed's β in
// (α,1), and every rate must be finite and non-negative; η and ε above
// 1/2 are clamped, so those learners accept large rates and must then
// run cleanly.
func TestNewLearnerRejectsRatesOutsideDomain(t *testing.T) {
	rates := []float64{-0.5, math.NaN(), math.Inf(1), math.Inf(-1), 0.005, 0.01, 1, 1.5, 1e6}
	mustReject := func(name string, rate float64) bool {
		switch {
		case !(rate >= 0) || math.IsInf(rate, 0):
			return true
		case name == "slate":
			return rate > 1
		case name == "distributed":
			return rate <= 0.01 || rate >= 1
		}
		return false
	}
	p := bandit.NewProblem(dist.Random("r", 16, rng.New(3)))
	for _, name := range Names {
		for _, rate := range rates {
			t.Run(fmt.Sprintf("%s/%v", name, rate), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				l, err := NewLearner(Config{Algorithm: name, K: 16, Rate: rate}, rng.New(1))
				if mustReject(name, rate) {
					if err == nil {
						t.Fatal("rate outside the domain accepted")
					}
					return
				}
				if err != nil {
					t.Fatalf("rate inside the domain rejected: %v", err)
				}
				res := Run(context.Background(), l, p, rng.New(2), RunConfig{MaxIter: 200, Workers: 1})
				if res.Err != nil || !(res.LeaderProb >= 0 && res.LeaderProb <= 1) {
					t.Fatalf("run: err %v, leader prob %v", res.Err, res.LeaderProb)
				}
			})
		}
	}
}
