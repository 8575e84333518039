package mwu

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/wrs"
)

// resyncEvery is how many update cycles may pass before Standard recomputes
// its running weight total (and Fenwick tree) exactly from the weight
// vector. The incremental maintenance in Update drifts by one rounding
// error per arm per cycle; resyncing every few hundred cycles bounds the
// accumulated drift to ~n·resyncEvery ulps, far below anything selection
// probabilities can feel, while amortizing the O(k) rebuild to nothing.
const resyncEvery = 512

// StandardConfig parameterizes the Standard (weighted-majority) MWU.
type StandardConfig struct {
	// K is the number of options.
	K int
	// Agents is the number of parallel evaluators n drawing from the
	// shared weight vector each iteration. The paper's examples use 16;
	// the experiment harness scales it with K for comparability with
	// Slate. Default 16.
	Agents int
	// Eta is the learning rate η ≤ 1/2 (Fig. 1). The evaluation derives it
	// from the error threshold ε = 0.05. Default 0.05.
	Eta float64
	// Tol is the convergence tolerance: converged when the leader's
	// probability reaches 1 − Tol. Default 1e-5 (Sec. IV-C).
	Tol float64
}

func (c *StandardConfig) fill() {
	if c.Agents <= 0 {
		c.Agents = 16
	}
	if c.Eta <= 0 {
		c.Eta = 0.05
	}
	if c.Eta > 0.5 {
		c.Eta = 0.5
	}
	if c.Tol <= 0 {
		c.Tol = 1e-5
	}
}

// Standard is the weighted-majority MWU of Fig. 1 in its signed-cost form
// (Arora–Hazan–Kale, costs m ∈ [−1, 1]): a single global weight vector
// over all k options; each of n agents samples an option from the
// normalized weights, evaluates it, and the shared weights are updated
// multiplicatively — w_i ← w_i·(1−η) on failure, w_i·(1+η) on success.
// The update is a full synchronization point: every agent reports to the
// node holding the weight vector, so per-iteration congestion is n
// (Table I).
//
// Convergence (Sec. IV-C): the leader's probability under the normalized
// weights reaches within Tol = 10⁻⁵ of the maximum possible, which for
// Standard (no exploration floor) is 1. Because weight mass compounds on
// whichever high-value arm takes off first, Standard commits hard and
// fast — and occasionally to a near-best rather than the best arm, which
// is why the paper finds it the least accurate of the three.
type Standard struct {
	cfg       StandardConfig
	weights   []float64
	sum       float64
	rng       *rng.RNG
	fen       *wrs.Fenwick // incrementally-maintained sampling index over weights
	sinceSync int          // update cycles since the last exact resync
	converged bool
	metrics   Metrics
}

// NewStandard creates a Standard learner with its own RNG stream.
func NewStandard(cfg StandardConfig, r *rng.RNG) *Standard {
	cfg.fill()
	if cfg.K <= 0 {
		panic("mwu: StandardConfig.K must be positive")
	}
	w := make([]float64, cfg.K)
	for i := range w {
		w[i] = 1
	}
	s := &Standard{
		cfg:     cfg,
		weights: w,
		sum:     float64(cfg.K),
		rng:     r,
		fen:     mustFenwick(w),
	}
	s.metrics.MemoryFloats = int64(cfg.K) // the shared weight vector
	return s
}

// mustFenwick builds the sampling index over freshly-initialized uniform
// weights, which the constructor cannot reject.
func mustFenwick(w []float64) *wrs.Fenwick {
	fen, err := wrs.NewFenwick(w)
	if err != nil {
		panic(fmt.Sprintf("mwu: uniform init weights unsampleable: %v", err))
	}
	return fen
}

// Name implements Learner.
func (s *Standard) Name() string { return "standard" }

// K implements Learner.
func (s *Standard) K() int { return s.cfg.K }

// Agents implements Learner.
func (s *Standard) Agents() int { return s.cfg.Agents }

// Sample draws one option per agent proportionally to the current weights
// (Fig. 1's Sample step). Instead of the naive O(n·k) per-agent scan it
// descends the incrementally-maintained Fenwick tree, O(n·log k) per
// cycle. The returned slice is freshly allocated and owned by the caller.
func (s *Standard) Sample() []int {
	arms := make([]int, s.cfg.Agents)
	for j := range arms {
		arms[j] = s.fen.Draw(s.rng)
	}
	return arms
}

// Update implements Learner: UpdateMissing with every reward arrived.
func (s *Standard) Update(arms []int, rewards []float64) { s.UpdateMissing(arms, rewards, nil) }

// UpdateMissing applies the signed multiplicative rule to every sampled
// option: w_i ← w_i·(1+η) on success, w_i·(1−η) on failure. All agents
// synchronize through the shared weight vector, so the holder of the
// vector receives one message per arrived agent — the congestion recorded
// in the metrics (n in a clean cycle). Standard degrades by skipping the
// missing slots: an agent whose reward never arrived contributes no
// multiplicative update this cycle. The weight vector stays unbiased in
// the surviving evidence; it just learns from fewer observations.
func (s *Standard) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	checkUpdate(arms, rewards, missing)
	arrived := 0
	for j, arm := range arms {
		if missing != nil && missing[j] {
			continue
		}
		arrived++
		old := s.weights[arm]
		if rewards[j] == 0 {
			s.weights[arm] = old * (1 - s.cfg.Eta)
		} else {
			s.weights[arm] = old * (1 + s.cfg.Eta)
		}
		s.sum += s.weights[arm] - old
		s.fen.Add(arm, s.weights[arm]-old)
	}
	s.sinceSync++
	if s.sinceSync >= resyncEvery {
		s.resync()
	}
	s.rescaleIfNeeded()
	// CPU was spent on every agent; only the arrived ones synchronized.
	s.metrics.recordIteration(s.cfg.Agents, arrived, int64(arrived))
	if s.LeaderProb() >= 1-s.cfg.Tol {
		s.converged = true
	}
}

// rescaleIfNeeded renormalizes the weight vector when its mass drifts far
// from its initial scale in either direction (success multipliers grow
// weights, failure multipliers shrink them), preventing overflow and
// underflow on long runs; selection probabilities are scale-invariant so
// behaviour is unchanged.
func (s *Standard) rescaleIfNeeded() {
	if s.sum > 1e-100 && s.sum < 1e100 {
		return
	}
	scale := float64(s.cfg.K) / s.sum
	for i := range s.weights {
		s.weights[i] *= scale
	}
	s.resync()
}

// resync recomputes the running total exactly from the weight vector and
// rebuilds the Fenwick tree, discarding the rounding drift that the
// incremental += maintenance in Update accumulates (one ulp-scale error per
// probed arm per cycle). Called every resyncEvery cycles and after every
// rescale.
func (s *Standard) resync() {
	s.sum = 0
	for _, w := range s.weights {
		s.sum += w
	}
	if err := s.fen.Reload(s.weights); err != nil {
		// Only a negative or NaN weight is rejected; positive update
		// factors never produce one from positive weights.
		panic(fmt.Sprintf("mwu: standard weights unsampleable: %v", err))
	}
	s.sinceSync = 0
}

// Leader implements Learner: the highest-weight option.
func (s *Standard) Leader() int { return stats.ArgMax(s.weights) }

// LeaderProb implements Learner: the leader's share of total weight.
func (s *Standard) LeaderProb() float64 {
	lead := s.Leader()
	if s.sum <= 0 {
		return 0
	}
	return s.weights[lead] / s.sum
}

// Weights returns a copy of the current weight vector (for inspection and
// tests; not part of the Learner interface).
func (s *Standard) Weights() []float64 { return append([]float64(nil), s.weights...) }

// Converged implements Learner: leader probability within Tol of 1.
func (s *Standard) Converged() bool { return s.converged }

// Metrics implements Learner.
func (s *Standard) Metrics() *Metrics { return &s.metrics }

func (s *Standard) String() string {
	return fmt.Sprintf("standard(k=%d, n=%d, η=%g)", s.cfg.K, s.cfg.Agents, s.cfg.Eta)
}
