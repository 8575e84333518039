package mwu

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// DistributedConfig parameterizes the Distributed (memoryless
// social-learning) MWU of Fig. 3.
type DistributedConfig struct {
	// K is the number of options.
	K int
	// PopSize is the number of agents. Zero means DefaultPopSize(K, Beta):
	// the weight vector is stored implicitly in option popularity, so the
	// population must be large enough to avoid premature decay of
	// diversity — the paper's "minimum agents" row of Table I, which grows
	// like k^(1/δ) with δ = ln(β/(1−β)).
	PopSize int
	// Mu is the probability an agent samples a random option instead of
	// observing a neighbor (exploration). The evaluation uses 0.05.
	Mu float64
	// Alpha is the probability of adopting an observed option that failed
	// its evaluation (0 ≤ α ≤ β ≤ 1). Default 0.01.
	Alpha float64
	// Beta is the probability of adopting an observed option that passed
	// its evaluation. Default 0.71.
	Beta float64
	// Plurality is the convergence threshold: the run converges when this
	// fraction of the population holds the same option. The paper uses
	// 0.30, reflecting the noise floor of the finite-population
	// approximation (Sec. IV-C). Default 0.30.
	Plurality float64
	// Faults, when non-nil, injects agent crashes/restarts and message
	// drop/delay/duplication into the message-passing protocol
	// (RunMessagePassing). The synchronous engine ignores it — probe-level
	// faults there are the Run driver's job.
	Faults *faults.Injector
	// Trace, when active, receives the message-passing protocol's event
	// stream (RunMessagePassing): run/iteration brackets, agent
	// crash/restart lifecycle, convergence checks, and sampled population
	// state. Events are emitted only from the coordinator goroutine, so
	// the stream is deterministic under a fixed seed. The synchronous
	// engine ignores it — there the Run driver owns tracing, exactly as it
	// owns probe-level faults.
	Trace *obs.Tracer
}

// defaultAlpha is the evaluation's failure-adoption probability α.
const defaultAlpha = 0.01

// maxAgents bounds tractable population sizes; configurations whose
// (explicit or derived) population exceeds it are rejected, mirroring the
// two intractable computations in the paper's Table II. 150000 keeps
// every evaluation scenario up to k=5000 tractable while the two
// size-16384 scenarios (≈400k agents) are not, matching the paper.
const maxAgents = 150000

func (c *DistributedConfig) fill() {
	if c.Mu <= 0 {
		c.Mu = 0.05
	}
	if c.Beta <= 0 {
		c.Beta = 0.71
	}
	if c.Alpha <= 0 {
		c.Alpha = defaultAlpha
	}
	if c.Plurality <= 0 {
		c.Plurality = 0.30
	}
	if c.PopSize <= 0 {
		c.PopSize = DefaultPopSize(c.K, c.Beta)
	}
}

// Delta returns δ = ln(β/(1−β)), the attention parameter that governs the
// Distributed variant's convergence and minimum-population asymptotics
// (Table I).
func Delta(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("mwu: beta must be in (0,1)")
	}
	return math.Log(beta / (1 - beta))
}

// DefaultPopSize returns the population the evaluation uses for k options:
// ceil(8·k^(1/δ)). The exponential dependence on 1/δ is what makes the
// largest scenarios intractable for Distributed in the paper.
func DefaultPopSize(k int, beta float64) int {
	d := Delta(beta)
	if d <= 0 {
		// β ≤ 1/2 gives no amplification; fall back to a large multiple.
		return 64 * k
	}
	v := math.Ceil(8 * math.Pow(float64(k), 1/d))
	if v > math.MaxInt32 {
		// β barely above 1/2 makes 1/δ enormous; saturate rather than
		// overflow — any such configuration is far beyond the
		// tractability bound anyway.
		return math.MaxInt32
	}
	return int(v)
}

// ErrIntractable reports that a Distributed configuration needs more
// agents than the tractability bound allows.
type ErrIntractable struct {
	K, PopSize, MaxAgents int
}

func (e *ErrIntractable) Error() string {
	return fmt.Sprintf("mwu: distributed MWU on k=%d needs %d agents (> max %d)",
		e.K, e.PopSize, e.MaxAgents)
}

// prepare validates and fills the configuration for both engines. It
// returns *ErrIntractable when the population exceeds maxAgents.
func (c *DistributedConfig) prepare() error {
	if c.K <= 0 {
		panic("mwu: DistributedConfig.K must be positive")
	}
	c.fill()
	if c.Alpha > c.Beta {
		panic("mwu: DistributedConfig requires alpha <= beta")
	}
	if c.PopSize > maxAgents {
		return &ErrIntractable{K: c.K, PopSize: c.PopSize, MaxAgents: maxAgents}
	}
	return nil
}

// Distributed is the memoryless social-learning MWU: PopSize agents each
// hold one current choice C_j; per iteration each agent observes either a
// uniformly random option (prob. μ) or the choice of a uniformly random
// neighbor, evaluates the observed option, and adopts it with probability
// β if the evaluation succeeded or α if it failed (Fig. 3).
//
// There is no shared weight vector: per-agent memory is O(1) and the
// distribution over options lives in the population's choice frequencies.
// Communication per iteration is one query per observing agent; the
// congestion recorded in the metrics is the in-degree of the most-queried
// agent, which concentrates at Θ(ln n / ln ln n) by the balls-into-bins
// bound (Sec. II-C, verified in internal/congestion).
//
// This type is the synchronous engine used by the experiment harness; an
// equivalent message-passing engine built from one goroutine per agent is
// in agents.go.
type Distributed struct {
	cfg     DistributedConfig
	choices []int // C_j: current choice of agent j
	counts  []int // popularity of each option
	queried []int32
	touched []int32 // agent indices with nonzero queried counts
	rng     *rng.RNG
	// leader caches the most-popular option so that the per-cycle
	// convergence check does not rescan all k counts; it is invalidated
	// whenever an adoption changes the counts and lazily recomputed with
	// the same smallest-index-wins scan as before.
	leader      int
	leaderValid bool
	metrics     Metrics
}

// NewDistributed creates a Distributed learner. It returns *ErrIntractable
// when the required population exceeds maxAgents.
func NewDistributed(cfg DistributedConfig, r *rng.RNG) (*Distributed, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	d := &Distributed{
		cfg:     cfg,
		choices: make([]int, cfg.PopSize),
		counts:  make([]int, cfg.K),
		queried: make([]int32, cfg.PopSize),
		rng:     r,
	}
	// Fig. 3 lines 1–5: options are assigned to agents round-robin so each
	// option starts with popSize/k holders.
	for j := range d.choices {
		opt := j % cfg.K
		d.choices[j] = opt
		d.counts[opt]++
	}
	d.metrics.MemoryFloats = 1 // each agent stores only its current choice
	return d, nil
}

// Name implements Learner.
func (d *Distributed) Name() string { return "distributed" }

// K implements Learner.
func (d *Distributed) K() int { return d.cfg.K }

// Agents implements Learner.
func (d *Distributed) Agents() int { return d.cfg.PopSize }

// Sample implements Fig. 3 lines 7–15: each agent picks a random option
// with probability μ, otherwise observes a uniformly random neighbor's
// current choice. Neighbor queries are messages; the per-iteration
// congestion (max in-degree) is accumulated into the metrics at Update.
// The returned slice is freshly allocated and owned by the caller.
func (d *Distributed) Sample() []int {
	// Reset per-iteration congestion counters touched last cycle.
	for _, j := range d.touched {
		d.queried[j] = 0
	}
	d.touched = d.touched[:0]
	observed := make([]int, d.cfg.PopSize)
	for j := range observed {
		if d.rng.Float64() < d.cfg.Mu {
			observed[j] = d.rng.Intn(d.cfg.K)
		} else {
			h := d.rng.Intn(d.cfg.PopSize)
			observed[j] = d.choices[h]
			if d.queried[h] == 0 {
				d.touched = append(d.touched, int32(h))
			}
			d.queried[h]++
		}
	}
	return observed
}

// Update implements Learner: UpdateMissing with every reward arrived.
func (d *Distributed) Update(arms []int, rewards []float64) { d.UpdateMissing(arms, rewards, nil) }

// UpdateMissing implements Fig. 3 lines 16–22: adopt the observed option
// with probability β on success, α on failure. An agent whose evaluation
// never produced a result simply keeps its current choice — no adoption
// flip is possible without an observation. No other agent is affected,
// which is the whole fault-tolerance argument for this variant (Table I):
// there is no barrier for the failure to wedge.
func (d *Distributed) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	checkUpdate(arms, rewards, missing)
	for j, arm := range arms {
		if missing != nil && missing[j] {
			continue
		}
		adopt := false
		if rewards[j] == 1 {
			adopt = d.rng.Float64() < d.cfg.Beta
		} else {
			adopt = d.rng.Float64() < d.cfg.Alpha
		}
		if adopt && d.choices[j] != arm {
			d.counts[d.choices[j]]--
			d.choices[j] = arm
			d.counts[arm]++
			d.leaderValid = false
		}
	}
	congestion := 0
	messages := int64(0)
	for _, j := range d.touched {
		c := int(d.queried[j])
		messages += int64(c)
		if c > congestion {
			congestion = c
		}
	}
	d.metrics.recordIteration(d.cfg.PopSize, congestion, messages)
}

// Autonomous marks the Distributed learner as barrier-free: a silent
// evaluator failure strands one agent's observation, never the cycle.
func (d *Distributed) Autonomous() bool { return true }

// Leader implements Learner: the most popular option (smallest index on
// ties). The scan result is cached and invalidated by adoptions, so the
// frequent convergence checks between updates are O(1).
func (d *Distributed) Leader() int {
	if !d.leaderValid {
		best := 0
		for i, c := range d.counts {
			if c > d.counts[best] {
				best = i
			}
		}
		d.leader = best
		d.leaderValid = true
	}
	return d.leader
}

// LeaderProb implements Learner: the leader's popularity fraction.
func (d *Distributed) LeaderProb() float64 {
	return float64(d.counts[d.Leader()]) / float64(d.cfg.PopSize)
}

// Popularity returns a copy of the per-option holder counts.
func (d *Distributed) Popularity() []int { return append([]int(nil), d.counts...) }

// Converged implements Learner with the plurality criterion: the run has
// converged when Plurality of the population holds the same option.
func (d *Distributed) Converged() bool {
	return d.LeaderProb() >= d.cfg.Plurality
}

// Metrics implements Learner.
func (d *Distributed) Metrics() *Metrics { return &d.metrics }

func (d *Distributed) String() string {
	return fmt.Sprintf("distributed(k=%d, pop=%d, μ=%g, α=%g, β=%g)",
		d.cfg.K, d.cfg.PopSize, d.cfg.Mu, d.cfg.Alpha, d.cfg.Beta)
}
