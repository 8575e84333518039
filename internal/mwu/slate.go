package mwu

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// SlateConfig parameterizes the Slate MWU (Kale–Reyzin–Schapire bandit
// slates, Fig. 2 in the paper).
type SlateConfig struct {
	// K is the number of options.
	K int
	// N is the slate size — the number of options selected and evaluated
	// in parallel each iteration. The evaluation fixes the k/n ratio via
	// γ: n = ceil(γ·k), min 2 (Sec. IV-B, IV-F). Default ceil(Gamma·K).
	N int
	// Gamma is the exploration probability γ: the slate marginals are
	// mixed with γ weight of the uniform slate distribution. Default 0.05.
	Gamma float64
	// Eta is the learning rate applied to the importance-weighted reward
	// estimates. Defaults to γ·n/k, which bounds each exponent η·x̂ by 1
	// and makes convergence iteration counts roughly size-independent when
	// n is proportional to k (the behaviour the paper reports for the
	// random scenarios). Set explicitly to override.
	Eta float64
	// Tol is the convergence tolerance relative to the maximum achievable
	// inclusion probability. Default 1e-5 (Sec. IV-C).
	Tol float64
}

// slateWindow is the number of consecutive cycles the leader must remain
// converged-and-stable before a Slate learner reports convergence.
const slateWindow = 5

func (c *SlateConfig) fill() {
	if c.Gamma <= 0 {
		c.Gamma = 0.05
	}
	if c.N <= 0 {
		c.N = int(math.Ceil(c.Gamma * float64(c.K)))
	}
	if c.N < 2 {
		c.N = 2
	}
	if c.N > c.K {
		c.N = c.K
	}
	if c.Eta <= 0 {
		c.Eta = c.Gamma * float64(c.N) / float64(c.K)
	}
	if c.Tol <= 0 {
		c.Tol = 1e-5
	}
}

// Slate is the slate-selection MWU: each iteration it selects a slate of N
// distinct options whose marginal inclusion probabilities follow the
// capped, exploration-mixed weight vector, evaluates all N in parallel,
// and updates only the slate members with importance-weighted estimates
// x̂_i = r_i / m_i (m_i the inclusion probability), via
// w_i ← w_i·exp(η·x̂_i).
//
// Slate draws with the O(k) systematic sampler rather than the O(k²)
// convex decomposition of Sec. II-C (internal/simplex): both realize the
// same per-option inclusion probabilities, all the update uses.
//
// Convergence (Sec. IV-C): the leader's inclusion probability is capped at
// maxIncl = (1−γ) + γ·n/k < 1; the learner converges when the leader's
// inclusion probability is within Tol of that maximum — the "probability
// of the highest weight option reaching the maximum possible" criterion.
type Slate struct {
	cfg       SlateConfig
	weights   []float64
	logShift  float64 // running normalization of log-weights
	rng       *rng.RNG
	capper    *simplex.Capper
	marginals []float64
	stable    int
	converged bool
	metrics   Metrics
}

// NewSlate creates a Slate learner with its own RNG stream.
func NewSlate(cfg SlateConfig, r *rng.RNG) *Slate {
	if cfg.K <= 0 {
		panic("mwu: SlateConfig.K must be positive")
	}
	cfg.fill()
	w := make([]float64, cfg.K)
	for i := range w {
		w[i] = 1
	}
	s := &Slate{cfg: cfg, weights: w, rng: r, capper: simplex.NewCapper(cfg.K, cfg.N)}
	s.metrics.MemoryFloats = int64(cfg.K) // the weight vector on the selecting node
	return s
}

// Name implements Learner.
func (s *Slate) Name() string { return "slate" }

// K implements Learner.
func (s *Slate) K() int { return s.cfg.K }

// Agents implements Learner: one evaluator per slate position.
func (s *Slate) Agents() int { return s.cfg.N }

// maxInclusion is the highest inclusion probability any option can attain
// given the exploration mixture.
func (s *Slate) maxInclusion() float64 {
	n, k := float64(s.cfg.N), float64(s.cfg.K)
	return (1 - s.cfg.Gamma) + s.cfg.Gamma*n/k
}

// Sample selects the next slate (Fig. 2's selection step): cap the
// normalized weights onto the slate polytope, mix in γ uniform
// exploration at the marginal level, and draw one slate. The capping uses
// the partial-selection Capper (O(k + m log n) instead of a full
// O(k log k) sort), and the systematic sampler keeps the whole selection
// step O(k). The returned slice is freshly allocated and owned by the
// caller.
func (s *Slate) Sample() []int {
	n, k := s.cfg.N, s.cfg.K
	q := s.capper.Cap(s.weights)
	if s.marginals == nil {
		s.marginals = make([]float64, k)
	}
	uniform := float64(n) / float64(k)
	for i := range s.marginals {
		s.marginals[i] = (1-s.cfg.Gamma)*float64(n)*q[i] + s.cfg.Gamma*uniform
	}
	return simplex.SystematicSample(s.marginals, n, s.rng)
}

// Update implements Learner: UpdateMissing with every reward arrived.
func (s *Slate) Update(arms []int, rewards []float64) { s.UpdateMissing(arms, rewards, nil) }

// UpdateMissing applies importance-weighted exponential updates to the
// arrived slate members only. The node holding the weight vector receives
// one result message per arrived slate position: congestion = n in a
// clean cycle (Table I).
//
// Slate degrades by importance-correcting the surviving slate members. A
// missing reward is a missing observation, not a zero reward; treating it
// as zero would bias every faulty cycle downward. Instead the arrived
// estimates are scaled by 1/p̂, where p̂ = arrived/n is the empirical
// probe-survival rate, so the expected total update mass matches a clean
// cycle — the same inverse-propensity trick the slate update already
// applies to inclusion probabilities, extended to fault survival. In a
// clean cycle p̂ = n/n is exactly 1 and the correction vanishes.
func (s *Slate) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	checkUpdate(arms, rewards, missing)
	arrived := len(arms)
	for _, miss := range missing {
		if miss {
			arrived--
		}
	}
	if arrived == 0 {
		// Every reward vanished: nothing arrived to learn from. Record the
		// cycle (CPU was burned) and leave the weights alone.
		s.metrics.recordIteration(s.cfg.N, 0, 0)
		s.stable = 0
		return
	}
	phat := float64(arrived) / float64(len(arms))
	for j, arm := range arms {
		if missing != nil && missing[j] {
			continue
		}
		m := s.marginals[arm]
		if m <= 0 {
			panic("mwu: probed option had zero inclusion probability")
		}
		xhat := rewards[j] / (m * phat)
		s.weights[arm] *= math.Exp(s.cfg.Eta * xhat)
	}
	s.rescaleIfNeeded()
	s.metrics.recordIteration(s.cfg.N, arrived, int64(arrived))

	// Convergence: leader pinned at the maximum achievable inclusion
	// probability for slateWindow consecutive cycles.
	lead := s.Leader()
	if s.maxInclusion()-s.marginals[lead] <= s.cfg.Tol {
		s.stable++
		if s.stable >= slateWindow {
			s.converged = true
		}
	} else {
		s.stable = 0
	}
}

// rescaleIfNeeded divides all weights by the maximum when it grows large,
// preventing overflow on long runs. Selection depends only on weight
// ratios, so behaviour is unchanged.
func (s *Slate) rescaleIfNeeded() {
	maxW := 0.0
	for _, w := range s.weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW < 1e100 {
		return
	}
	inv := 1 / maxW
	for i := range s.weights {
		s.weights[i] *= inv
	}
	s.logShift += math.Log(maxW)
}

// Leader implements Learner: the highest-weight option.
func (s *Slate) Leader() int { return stats.ArgMax(s.weights) }

// LeaderProb implements Learner: the leader's share of total weight.
func (s *Slate) LeaderProb() float64 {
	lead := s.Leader()
	return s.weights[lead] / stats.Sum(s.weights)
}

// Weights returns a copy of the current weight vector.
func (s *Slate) Weights() []float64 { return append([]float64(nil), s.weights...) }

// Converged implements Learner.
func (s *Slate) Converged() bool { return s.converged }

// Metrics implements Learner.
func (s *Slate) Metrics() *Metrics { return &s.metrics }

func (s *Slate) String() string {
	return fmt.Sprintf("slate(k=%d, n=%d, γ=%g, η=%g)", s.cfg.K, s.cfg.N, s.cfg.Gamma, s.cfg.Eta)
}
