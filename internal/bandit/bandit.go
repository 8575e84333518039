// Package bandit defines the multi-armed bandit abstraction the MWU
// learners operate on, together with the bookkeeping the evaluation needs:
// pull counts, probe-cost accounting, and hindsight scoring.
//
// In the paper's framing, each "option" has an unknown benefit and probing
// an option is expensive (patch + compile + run test suite). The learner
// sees only Bernoulli feedback per probe. Problem is the oracle; every
// probe is counted so CPU-iteration costs (Table IV) and the cost model
// (Sec. IV-E) can be derived from real accounting rather than estimates.
package bandit

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Reward is the outcome of one probe: 1 (success) or 0 (failure).
type Reward = float64

// Oracle is the minimal interface a learner needs: the number of arms and
// a way to probe one. Probe must be safe for concurrent use; parallel
// learners evaluate many arms at once.
type Oracle interface {
	// Arms returns the number of options k.
	Arms() int
	// Probe evaluates option i once using the caller-supplied RNG stream
	// and returns a {0,1} reward.
	Probe(i int, r *rng.RNG) Reward
}

// Problem is an Oracle backed by a dist.Distribution, with per-arm pull
// accounting. All methods are safe for concurrent use.
type Problem struct {
	d     *dist.Distribution
	pulls []atomic.Int64
	total atomic.Int64
}

// NewProblem wraps a distribution as a probe-counted bandit problem.
func NewProblem(d *dist.Distribution) *Problem {
	return &Problem{d: d, pulls: make([]atomic.Int64, d.Size())}
}

// Arms returns the number of options.
func (p *Problem) Arms() int { return p.d.Size() }

// Probe draws a Bernoulli reward for arm i and records the pull.
func (p *Problem) Probe(i int, r *rng.RNG) Reward {
	p.pulls[i].Add(1)
	p.total.Add(1)
	return p.d.Bernoulli(i, r)
}

// Distribution exposes the underlying truth for scoring (the learner must
// not use it; the experiment harness does).
func (p *Problem) Distribution() *dist.Distribution { return p.d }

// Pulls returns how many times arm i has been probed.
func (p *Problem) Pulls(i int) int64 { return p.pulls[i].Load() }

// TotalPulls returns the total number of probes across all arms — the
// "fitness evaluations" currency of Sec. IV-G.
func (p *Problem) TotalPulls() int64 { return p.total.Load() }

// Accuracy scores a final choice against the hindsight best (Table III).
func (p *Problem) Accuracy(chosen int) float64 { return p.d.Accuracy(chosen) }

// Best returns the hindsight-best arm.
func (p *Problem) Best() int { return p.d.Best() }

func (p *Problem) String() string {
	return fmt.Sprintf("bandit over %v, %d pulls", p.d, p.TotalPulls())
}

// FuncOracle adapts an arbitrary probe function to the Oracle interface.
// It is used by MWRepair, where probing an arm means composing that many
// pool mutations and running the test suite, and by tests that need
// deterministic or adversarial oracles.
type FuncOracle struct {
	K int
	F func(arm int, r *rng.RNG) Reward

	total atomic.Int64
}

// Arms returns the number of options.
func (o *FuncOracle) Arms() int { return o.K }

// Probe invokes the wrapped function and counts the call.
func (o *FuncOracle) Probe(i int, r *rng.RNG) Reward {
	o.total.Add(1)
	return o.F(i, r)
}

// TotalPulls returns how many probes have been issued.
func (o *FuncOracle) TotalPulls() int64 { return o.total.Load() }
