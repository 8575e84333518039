package mwu

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/rng"
)

// CongestionConfig parameterizes the constant-step congestion-game MWU.
type CongestionConfig struct {
	// K is the number of options.
	K int
	// Agents is the number of parallel evaluators — the players of the
	// congestion game — drawing from the shared weights each iteration.
	// Default 16.
	Agents int
	// Epsilon is the constant step size ε ≤ 1/2 of the linear update
	// w ← w·(1 + ε·gain). Default 0.1.
	Epsilon float64
	// Plurality is the convergence criterion: converged when the leader
	// holds this fraction of total weight. Shared resources cap the
	// leader's share well below 1 (an arm every agent crowds onto stops
	// paying), so the criterion is plurality, as for Distributed.
	// Default 0.30.
	Plurality float64
}

// congestionLambda is the load-sharing coefficient λ: a successful probe
// of an arm carrying load ℓ gains r/(1 + λ·(ℓ−1)). Larger λ pushes the
// population apart harder.
const congestionLambda = 0.25

func (c *CongestionConfig) fill() {
	if c.Agents <= 0 {
		c.Agents = 16
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.Epsilon > 0.5 {
		c.Epsilon = 0.5
	}
	if c.Plurality <= 0 {
		c.Plurality = 0.30
	}
}

// Congestion is MWU with constant step size driven by congestion-game
// dynamics, after Palaiopanos–Panageas–Piliouras ("Multiplicative Weights
// Update with Constant Step-Size in Congestion Games"): each cycle's
// agents are players placing load on the arms they sample, and an arm's
// observed gain is shared across its load — congestion.SharedGain — before
// entering the linear update w ← w·(1 + ε·g). Success on a crowded arm
// pays little, so the population spreads over the near-best arms instead
// of compounding onto one; failure costs −1 regardless of load. With
// constant ε the dynamics converge (in the game-theoretic setting, to a
// Nash equilibrium of the load-sharing game), and the learner's
// convergence criterion is accordingly plurality, not near-certainty.
//
// Like Optimistic it is built on the concurrent sampling API: the weight
// vector is frozen into a ConcurrentAlias each cycle and the probe
// workers draw their own arms through per-slot streams. The congestion it
// reports to the metrics is the game's own quantity — the maximum load any
// arm carried in the cycle — which is what the dynamics actively dissipate.
type Congestion struct {
	streamWeights
	cfg     CongestionConfig
	loads   []int // per-arm load tally, rebuilt each cycle
	arrived []int // scratch for the arms that arrived in a degraded cycle
}

// NewCongestion creates a Congestion learner; r seeds the per-slot draw
// streams.
func NewCongestion(cfg CongestionConfig, r *rng.RNG) *Congestion {
	cfg.fill()
	if cfg.K <= 0 {
		panic("mwu: CongestionConfig.K must be positive")
	}
	c := &Congestion{
		streamWeights: newStreamWeights(cfg.K, cfg.Agents, r),
		cfg:           cfg,
		loads:         make([]int, cfg.K),
	}
	// The shared weight vector plus the per-arm load tally.
	c.metrics.MemoryFloats = 2 * int64(cfg.K)
	return c
}

// Name implements Learner.
func (c *Congestion) Name() string { return "congestion" }

// K implements Learner.
func (c *Congestion) K() int { return c.cfg.K }

// Agents implements Learner.
func (c *Congestion) Agents() int { return c.cfg.Agents }

// Update implements Learner: UpdateMissing with every reward arrived.
func (c *Congestion) Update(arms []int, rewards []float64) { c.UpdateMissing(arms, rewards, nil) }

// UpdateMissing tallies the cycle's loads, then applies the load-shared
// linear rule to every arrived arm in slot order. Only the arms whose
// rewards arrived place load and receive updates — a vanished player
// neither congests a resource nor learns from it.
func (c *Congestion) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	checkUpdate(arms, rewards, missing)
	placed := arms
	if missing != nil {
		c.arrived = c.arrived[:0]
		for j, arm := range arms {
			if !missing[j] {
				c.arrived = append(c.arrived, arm)
			}
		}
		placed = c.arrived
	}
	maxLoad := congestion.LoadsInto(c.loads, placed)
	for j, arm := range arms {
		if missing != nil && missing[j] {
			continue
		}
		g := congestion.SharedGain(rewards[j], c.loads[arm], congestionLambda)
		c.weights[arm] *= 1 + c.cfg.Epsilon*g
	}
	// The game's congestion: the heaviest-loaded arm this cycle.
	c.metrics.recordIteration(c.cfg.Agents, maxLoad, int64(len(placed)))
	c.finishCycle(c.cfg.Plurality)
}

func (c *Congestion) String() string {
	return fmt.Sprintf("congestion(k=%d, n=%d, ε=%g, λ=%g)", c.cfg.K, c.cfg.Agents, c.cfg.Epsilon, congestionLambda)
}
