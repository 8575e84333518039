package mwu

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/rng"
	"repro/internal/wrs"
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
	// Lambda is the load-sharing coefficient: a successful probe of an arm
	// carrying load ℓ gains r/(1 + λ·(ℓ−1)). Larger λ pushes the
	// population apart harder. Default 0.25.
	Lambda float64
	// Plurality is the convergence criterion: converged when the leader
	// holds this fraction of total weight. Shared resources cap the
	// leader's share well below 1 (an arm every agent crowds onto stops
	// paying), so the criterion is plurality, as for Distributed.
	// Default 0.30.
	Plurality float64
}

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
	if c.Lambda <= 0 {
		c.Lambda = 0.25
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
	cfg        CongestionConfig
	weights    []float64
	loads      []int // per-arm load tally, rebuilt each cycle
	arrived    []int // scratch for the arms that arrived in a degraded cycle
	sampler    *wrs.ConcurrentAlias
	leader     int
	leaderProb float64
	converged  bool
	metrics    Metrics
}

// NewCongestion creates a Congestion learner; r seeds the per-slot draw
// streams.
func NewCongestion(cfg CongestionConfig, r *rng.RNG) *Congestion {
	cfg.fill()
	if cfg.K <= 0 {
		panic("mwu: CongestionConfig.K must be positive")
	}
	w := make([]float64, cfg.K)
	for i := range w {
		w[i] = 1
	}
	c := &Congestion{
		cfg:        cfg,
		weights:    w,
		loads:      make([]int, cfg.K),
		sampler:    wrs.NewConcurrentAlias(r, cfg.Agents),
		leaderProb: 1 / float64(cfg.K),
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

// FreezeSampler implements StreamSampler; see Optimistic.FreezeSampler.
func (c *Congestion) FreezeSampler() (wrs.Forkable, error) {
	if err := c.sampler.Reload(c.weights); err != nil {
		return nil, err
	}
	return c.sampler, nil
}

// Sample implements Learner for drivers that do not use the stream path;
// see Optimistic.Sample for the contract.
func (c *Congestion) Sample() []int {
	s, err := c.FreezeSampler()
	if err != nil {
		panic(err)
	}
	arms := make([]int, c.cfg.Agents)
	for i := range arms {
		arms[i] = s.Stream(i).Draw()
	}
	return arms
}

// Update tallies the cycle's loads, then applies the load-shared linear
// rule to every sampled arm in slot order.
func (c *Congestion) Update(arms []int, rewards []float64) {
	if len(arms) != len(rewards) {
		panic("mwu: arms/rewards length mismatch")
	}
	maxLoad := congestion.LoadsInto(c.loads, arms)
	for j, arm := range arms {
		g := congestion.SharedGain(rewards[j], c.loads[arm], c.cfg.Lambda)
		c.weights[arm] *= 1 + c.cfg.Epsilon*g
	}
	// The game's congestion: the heaviest-loaded arm this cycle.
	c.metrics.recordIteration(c.cfg.Agents, maxLoad, int64(c.cfg.Agents))
	c.finishCycle()
}

// UpdateMissing implements PartialUpdater: only the arms whose rewards
// arrived place load and receive updates — a vanished player neither
// congests a resource nor learns from it.
func (c *Congestion) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	if len(arms) != len(rewards) || len(arms) != len(missing) {
		panic("mwu: arms/rewards/missing length mismatch")
	}
	c.arrived = c.arrived[:0]
	for j, arm := range arms {
		if !missing[j] {
			c.arrived = append(c.arrived, arm)
		}
	}
	maxLoad := congestion.LoadsInto(c.loads, c.arrived)
	for j, arm := range arms {
		if missing[j] {
			continue
		}
		g := congestion.SharedGain(rewards[j], c.loads[arm], c.cfg.Lambda)
		c.weights[arm] *= 1 + c.cfg.Epsilon*g
	}
	c.metrics.recordIteration(c.cfg.Agents, maxLoad, int64(len(c.arrived)))
	c.finishCycle()
}

// finishCycle refreshes the cached leader state and renormalizes on scale
// drift; see Optimistic.finishCycle.
func (c *Congestion) finishCycle() {
	sum, maxW, lead := 0.0, 0.0, 0
	for i, w := range c.weights {
		sum += w
		if w > maxW {
			maxW, lead = w, i
		}
	}
	if maxW > 1e100 || maxW < 1e-100 {
		inv := 1 / maxW
		for i := range c.weights {
			c.weights[i] *= inv
		}
		sum *= inv
		maxW = c.weights[lead]
	}
	c.leader = lead
	c.leaderProb = maxW / sum
	if c.leaderProb >= c.cfg.Plurality {
		c.converged = true
	}
}

// Leader implements Learner: the highest-weight option.
func (c *Congestion) Leader() int { return c.leader }

// LeaderProb implements Learner: the leader's share of total weight.
func (c *Congestion) LeaderProb() float64 { return c.leaderProb }

// Weights returns a copy of the current weight vector (for inspection and
// tests; not part of the Learner interface).
func (c *Congestion) Weights() []float64 { return append([]float64(nil), c.weights...) }

// Converged implements Learner: the leader reached plurality.
func (c *Congestion) Converged() bool { return c.converged }

// Metrics implements Learner.
func (c *Congestion) Metrics() *Metrics { return &c.metrics }

func (c *Congestion) String() string {
	return fmt.Sprintf("congestion(k=%d, n=%d, ε=%g, λ=%g)", c.cfg.K, c.cfg.Agents, c.cfg.Epsilon, c.cfg.Lambda)
}
