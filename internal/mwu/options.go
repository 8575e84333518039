package mwu

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Config is the unified learner configuration — one construction path for
// all five MWU realizations; callers set its fields directly. Zero fields
// take the evaluation defaults of Sec. IV-B; the realization-specific
// meaning of each shared knob is documented on the field. The per-type
// constructors (NewStandard, NewSlate, ...) remain for knobs Config does
// not expose.
type Config struct {
	// Algorithm selects the realization: "standard", "slate",
	// "distributed", "optimistic", or "congestion" (see Names).
	Algorithm string
	// K is the number of options. Required.
	K int

	// Agents is the per-iteration parallelism: the evaluator count for
	// Standard, Optimistic and Congestion, the slate size n for Slate, and
	// the population size for Distributed. 0 takes each realization's
	// evaluation default (⌈0.05k⌉ floored at 16, ⌈γk⌉, and DefaultPopSize
	// respectively).
	Agents int
	// Rate is the realization's learning intensity: η for Standard and
	// Optimistic, γ for Slate, β for Distributed, ε for Congestion. 0
	// takes the evaluation default (0.05, 0.05, 0.05, 0.71, 0.1). NewLearner
	// rejects a negative or non-finite rate, γ > 1, and β outside
	// (α, 1) with the default α = 0.01.
	Rate float64
	// Convergence is the convergence threshold: leader-probability
	// tolerance for Standard, Slate and Optimistic, plurality fraction
	// for Distributed and Congestion. 0 takes the default (1e-5 or 0.30
	// respectively).
	Convergence float64
}

// NewLearner is the unified factory: it builds the configured realization
// with its own RNG stream. Distributed configurations whose population
// exceeds the tractability bound return *ErrIntractable, mirroring the
// two intractable cells in the paper's Table II; an unknown Algorithm, or
// a Rate outside the realization's domain, is an error.
func NewLearner(cfg Config, r *rng.RNG) (Learner, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("mwu: Config.K must be positive (got %d)", cfg.K)
	}
	// A Rate outside the realization's domain would panic in its
	// constructor or mid-run; 0 takes the default, and η and ε above 1/2
	// are clamped by their realizations.
	if !(cfg.Rate >= 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("mwu: Config.Rate must be finite and non-negative (got %v)", cfg.Rate)
	}
	agents := cfg.Agents // the shared-weight-vector learners' evaluator count
	if agents <= 0 {
		agents = defaultAgents(cfg.K)
	}
	switch cfg.Algorithm {
	case "standard":
		return NewStandard(StandardConfig{K: cfg.K, Agents: agents, Eta: cfg.Rate, Tol: cfg.Convergence}, r), nil
	case "slate":
		if cfg.Rate > 1 {
			return nil, fmt.Errorf("mwu: slate rate γ must be in (0,1] (got %v)", cfg.Rate)
		}
		return NewSlate(SlateConfig{K: cfg.K, N: cfg.Agents, Gamma: cfg.Rate, Tol: cfg.Convergence}, r), nil
	case "distributed":
		if cfg.Rate != 0 && (cfg.Rate <= defaultAlpha || cfg.Rate >= 1) {
			return nil, fmt.Errorf("mwu: distributed rate β must be in (%v,1) (got %v)", defaultAlpha, cfg.Rate)
		}
		return NewDistributed(DistributedConfig{
			K:         cfg.K,
			PopSize:   cfg.Agents,
			Mu:        0.05,
			Beta:      cfg.Rate,
			Plurality: cfg.Convergence,
		}, r)
	case "optimistic":
		return NewOptimistic(OptimisticConfig{
			K: cfg.K, Agents: agents, Eta: cfg.Rate, Tol: cfg.Convergence,
		}, r), nil
	case "congestion":
		return NewCongestion(CongestionConfig{
			K: cfg.K, Agents: agents, Epsilon: cfg.Rate, Plurality: cfg.Convergence,
		}, r), nil
	default:
		return nil, fmt.Errorf("mwu: unknown learner %q (want one of %v)", cfg.Algorithm, Names)
	}
}

// defaultAgents is the shared-weight-vector learners' evaluation default:
// comparable with Slate's n = ⌈0.05k⌉, floored at the paper's 16 threads.
func defaultAgents(k int) int {
	agents := (k*5 + 99) / 100
	if agents < 16 {
		agents = 16
	}
	return agents
}
