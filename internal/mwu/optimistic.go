package mwu

import (
	"fmt"
	"math"

	"repro/internal/rng"
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
	streamWeights
	cfg      OptimisticConfig
	lastGain []float64 // previous signed gain observed per arm; 0 before first touch
}

// NewOptimistic creates an Optimistic learner with its own RNG stream; r
// seeds the per-slot draw streams.
func NewOptimistic(cfg OptimisticConfig, r *rng.RNG) *Optimistic {
	cfg.fill()
	if cfg.K <= 0 {
		panic("mwu: OptimisticConfig.K must be positive")
	}
	o := &Optimistic{
		streamWeights: newStreamWeights(cfg.K, cfg.Agents, r),
		cfg:           cfg,
		lastGain:      make([]float64, cfg.K),
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

// gainOf maps a {0,1} reward to the signed gain g ∈ {−1, +1}.
func gainOf(reward float64) float64 {
	if reward == 0 {
		return -1
	}
	return 1
}

// Update implements Learner: UpdateMissing with every reward arrived.
func (o *Optimistic) Update(arms []int, rewards []float64) { o.UpdateMissing(arms, rewards, nil) }

// UpdateMissing applies the optimistic rule to every arrived arm, in slot
// order (duplicate arms compound deterministically): w ← w·exp(η(2g −
// g_prev)), then remembers g as the arm's previous gain. Every arrived
// agent reports to the weight holder, as for Standard, so congestion is
// the arrived count; a missing slot contributes no update and no message.
func (o *Optimistic) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	checkUpdate(arms, rewards, missing)
	arrived := 0
	for j, arm := range arms {
		if missing != nil && missing[j] {
			continue
		}
		arrived++
		g := gainOf(rewards[j])
		o.weights[arm] *= math.Exp(o.cfg.Eta * (2*g - o.lastGain[arm]))
		o.lastGain[arm] = g
	}
	o.metrics.recordIteration(o.cfg.Agents, arrived, int64(arrived))
	o.finishCycle(1 - o.cfg.Tol)
}

func (o *Optimistic) String() string {
	return fmt.Sprintf("optimistic(k=%d, n=%d, η=%g)", o.cfg.K, o.cfg.Agents, o.cfg.Eta)
}
