package mwu

import (
	"repro/internal/rng"
	"repro/internal/wrs"
)

// streamWeights is the weight core the two stream learners (Optimistic
// and Congestion) share: the weight vector, the frozen per-cycle alias
// table the probe workers draw from, and the cached leader state. The
// learners embed it and differ only in their update rule and in the
// leader share that counts as converged.
type streamWeights struct {
	weights    []float64
	sampler    *wrs.ConcurrentAlias
	agents     int
	leader     int
	leaderProb float64
	converged  bool
	metrics    Metrics
}

// newStreamWeights starts k uniform weights; r seeds the agents' per-slot
// draw streams.
func newStreamWeights(k, agents int, r *rng.RNG) streamWeights {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return streamWeights{
		weights:    w,
		sampler:    wrs.NewConcurrentAlias(r, agents),
		agents:     agents,
		leaderProb: 1 / float64(k),
	}
}

// FreezeSampler implements StreamSampler: it rebuilds the frozen alias
// table in place from the current weights and hands the driver the
// per-slot draw streams.
func (s *streamWeights) FreezeSampler() (wrs.Forkable, error) {
	if err := s.sampler.Reload(s.weights); err != nil {
		return nil, err
	}
	return s.sampler, nil
}

// Sample implements Learner for drivers that do not use the stream path:
// it freezes the sampler and draws every slot sequentially, consuming
// exactly the variates the concurrent path would — so both paths yield
// the same assignment. It panics if the weight state is invalid; the Run
// driver uses FreezeSampler directly and threads the error instead.
func (s *streamWeights) Sample() []int {
	f, err := s.FreezeSampler()
	if err != nil {
		panic(err)
	}
	arms := make([]int, s.agents)
	for i := range arms {
		arms[i] = f.Stream(i).Draw()
	}
	return arms
}

// finishCycle refreshes the cached leader state in one O(k) pass,
// renormalizes by the maximum weight when the vector drifts toward
// overflow or underflow (selection probabilities are scale-invariant),
// and latches convergence once the leader's share reaches threshold.
func (s *streamWeights) finishCycle(threshold float64) {
	sum, maxW, lead := 0.0, 0.0, 0
	for i, w := range s.weights {
		sum += w
		if w > maxW {
			maxW, lead = w, i
		}
	}
	if maxW > 1e100 || maxW < 1e-100 {
		inv := 1 / maxW
		for i := range s.weights {
			s.weights[i] *= inv
		}
		sum *= inv
		maxW = s.weights[lead]
	}
	s.leader = lead
	s.leaderProb = maxW / sum
	if s.leaderProb >= threshold {
		s.converged = true
	}
}

// Leader implements Learner: the highest-weight option.
func (s *streamWeights) Leader() int { return s.leader }

// LeaderProb implements Learner: the leader's share of total weight.
func (s *streamWeights) LeaderProb() float64 { return s.leaderProb }

// Weights returns a copy of the current weight vector (for inspection and
// tests; not part of the Learner interface).
func (s *streamWeights) Weights() []float64 { return append([]float64(nil), s.weights...) }

// Converged implements Learner: the leader's share reached the learner's
// threshold.
func (s *streamWeights) Converged() bool { return s.converged }

// Metrics implements Learner.
func (s *streamWeights) Metrics() *Metrics { return &s.metrics }
