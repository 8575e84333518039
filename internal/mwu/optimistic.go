package mwu

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/wrs"
)

// OptimisticConfig parameterizes the optimistic-gradient MWU.
type OptimisticConfig struct {
	// K is the number of options.
	K int
	// Agents is the number of parallel evaluators drawing from the shared
	// weight vector each iteration. Default 16.
	Agents int
	// Eta is the learning rate η ≤ 1/2. Default 0.05.
	Eta float64
	// Tol is the convergence tolerance: converged when the leader's
	// probability reaches 1 − Tol. Default 1e-5.
	Tol float64
}

func (c *OptimisticConfig) fill() {
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

// Optimistic is MWU with a gradient-prediction step, after Dekel et al.'s
// "Beating the Multiplicative Weights Update Algorithm" line of work: the
// exponential update uses twice the fresh gain minus the previous gain
// observed on the same arm, w ← w·exp(η·(2g_t − g_{t−1})). When
// consecutive observations of an arm agree the effective step doubles —
// the optimistic prediction was right — and when they flip the correction
// cancels most of the move, damping oscillation on noisy arms.
//
// Optimistic is the first learner built on the concurrent sampling API:
// it has no Fenwick tree or batcher. Each cycle it freezes its weight
// vector into a ConcurrentAlias (parallel table build, see wrs), and the
// Run driver's probe workers draw their slots' arms from the frozen table
// through per-slot streams — no driver-side sampling pass at all.
type Optimistic struct {
	cfg        OptimisticConfig
	weights    []float64
	lastGain   []float64 // previous signed gain observed per arm; 0 before first touch
	sampler    *wrs.ConcurrentAlias
	leader     int
	leaderProb float64
	converged  bool
	metrics    Metrics
}

// NewOptimistic creates an Optimistic learner with its own RNG stream; r
// seeds the per-slot draw streams.
func NewOptimistic(cfg OptimisticConfig, r *rng.RNG) *Optimistic {
	cfg.fill()
	if cfg.K <= 0 {
		panic("mwu: OptimisticConfig.K must be positive")
	}
	w := make([]float64, cfg.K)
	for i := range w {
		w[i] = 1
	}
	o := &Optimistic{
		cfg:        cfg,
		weights:    w,
		lastGain:   make([]float64, cfg.K),
		sampler:    wrs.NewConcurrentAlias(r, cfg.Agents),
		leaderProb: 1 / float64(cfg.K),
	}
	// The shared weight vector plus the per-arm gain memory.
	o.metrics.MemoryFloats = 2 * int64(cfg.K)
	return o
}

// Name implements Learner.
func (o *Optimistic) Name() string { return "optimistic" }

// K implements Learner.
func (o *Optimistic) K() int { return o.cfg.K }

// Agents implements Learner.
func (o *Optimistic) Agents() int { return o.cfg.Agents }

// FreezeSampler implements StreamSampler: it rebuilds the frozen alias
// table in place from the current weights and hands the driver the
// per-slot draw streams.
func (o *Optimistic) FreezeSampler() (wrs.Forkable, error) {
	if err := o.sampler.Reload(o.weights); err != nil {
		return nil, err
	}
	return o.sampler, nil
}

// Sample implements Learner for drivers that do not use the stream path:
// it freezes the sampler and draws every slot sequentially, consuming
// exactly the variates the concurrent path would — so both paths yield
// the same assignment. It panics if the weight state is invalid; the Run
// driver uses FreezeSampler directly and threads the error instead.
func (o *Optimistic) Sample() []int {
	s, err := o.FreezeSampler()
	if err != nil {
		panic(err)
	}
	arms := make([]int, o.cfg.Agents)
	for i := range arms {
		arms[i] = s.Stream(i).Draw()
	}
	return arms
}

// gainOf maps a {0,1} reward to the signed gain g ∈ {−1, +1}.
func gainOf(reward float64) float64 {
	if reward == 0 {
		return -1
	}
	return 1
}

// Update applies the optimistic rule to every sampled arm, in slot order
// (duplicate arms compound deterministically): w ← w·exp(η(2g − g_prev)),
// then remembers g as the arm's previous gain.
func (o *Optimistic) Update(arms []int, rewards []float64) {
	if len(arms) != len(rewards) {
		panic("mwu: arms/rewards length mismatch")
	}
	for j, arm := range arms {
		g := gainOf(rewards[j])
		o.weights[arm] *= math.Exp(o.cfg.Eta * (2*g - o.lastGain[arm]))
		o.lastGain[arm] = g
	}
	// Full synchronization, as Standard: every agent reports to the
	// weight holder, congestion = n.
	o.metrics.recordIteration(o.cfg.Agents, o.cfg.Agents, int64(o.cfg.Agents))
	o.finishCycle()
}

// UpdateMissing implements PartialUpdater: slots whose reward never
// arrived contribute no update and no message, exactly as Standard
// degrades.
func (o *Optimistic) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	if len(arms) != len(rewards) || len(arms) != len(missing) {
		panic("mwu: arms/rewards/missing length mismatch")
	}
	arrived := 0
	for j, arm := range arms {
		if missing[j] {
			continue
		}
		arrived++
		g := gainOf(rewards[j])
		o.weights[arm] *= math.Exp(o.cfg.Eta * (2*g - o.lastGain[arm]))
		o.lastGain[arm] = g
	}
	o.metrics.recordIteration(o.cfg.Agents, arrived, int64(arrived))
	o.finishCycle()
}

// finishCycle refreshes the cached leader state in one O(k) pass and
// renormalizes by the maximum weight when the vector drifts toward
// overflow or underflow (selection probabilities are scale-invariant).
func (o *Optimistic) finishCycle() {
	sum, maxW, lead := 0.0, 0.0, 0
	for i, w := range o.weights {
		sum += w
		if w > maxW {
			maxW, lead = w, i
		}
	}
	if maxW > 1e100 || maxW < 1e-100 {
		inv := 1 / maxW
		for i := range o.weights {
			o.weights[i] *= inv
		}
		sum *= inv
		maxW = o.weights[lead]
	}
	o.leader = lead
	o.leaderProb = maxW / sum
	if o.leaderProb >= 1-o.cfg.Tol {
		o.converged = true
	}
}

// Leader implements Learner: the highest-weight option.
func (o *Optimistic) Leader() int { return o.leader }

// LeaderProb implements Learner: the leader's share of total weight.
func (o *Optimistic) LeaderProb() float64 { return o.leaderProb }

// Weights returns a copy of the current weight vector (for inspection and
// tests; not part of the Learner interface).
func (o *Optimistic) Weights() []float64 { return append([]float64(nil), o.weights...) }

// Converged implements Learner: leader probability within Tol of 1.
func (o *Optimistic) Converged() bool { return o.converged }

// Metrics implements Learner.
func (o *Optimistic) Metrics() *Metrics { return &o.metrics }

func (o *Optimistic) String() string {
	return fmt.Sprintf("optimistic(k=%d, n=%d, η=%g)", o.cfg.K, o.cfg.Agents, o.cfg.Eta)
}
