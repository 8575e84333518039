// Package congestion models the communication congestion of the three MWU
// realizations (Table I and Sec. II-C of the paper).
//
// For Standard and Slate, every agent synchronizes with the node holding
// the weight vector each iteration, so the heaviest-hit node receives n
// messages: congestion is Θ(n).
//
// For Distributed, each agent queries one uniformly random neighbor — the
// classic "balls into bins" process with n balls and n bins. The maximum
// load is Θ(ln n / ln ln n) with probability at least 1 − 1/n. This
// package provides both the simulator that measures the realized maximum
// load and the closed-form bound, so the experiment harness can verify the
// asymptotics empirically.
package congestion

import (
	"math"

	"repro/internal/rng"
)

// MaxLoad throws n balls into bins uniformly at random and returns the
// maximum number of balls in any single bin — the congestion of one
// Distributed iteration with n agents.
func MaxLoad(n, bins int, r *rng.RNG) int {
	if n < 0 || bins <= 0 {
		panic("congestion: invalid balls/bins")
	}
	counts := make([]int, bins)
	maxC := 0
	for i := 0; i < n; i++ {
		b := r.Intn(bins)
		counts[b]++
		if counts[b] > maxC {
			maxC = counts[b]
		}
	}
	return maxC
}

// BallsIntoBinsBound returns the classic high-probability bound on the
// maximum load for n balls into n bins: ln n / ln ln n (up to constants),
// the expression in Table I's communication row for Distributed. Defined
// for n ≥ 3 (ln ln n must be positive); smaller n return n itself, the
// trivial bound.
func BallsIntoBinsBound(n int) float64 {
	if n < 3 {
		return float64(n)
	}
	ll := math.Log(math.Log(float64(n)))
	if ll <= 0 {
		return float64(n)
	}
	return math.Log(float64(n)) / ll
}

// LoadsInto tallies the load profile of one assignment into loads (length
// k, zeroed first): loads[a] becomes the number of agents whose arm is a.
// It returns the maximum load — the realized congestion of the assignment,
// the quantity the constant-step congestion-game learner both measures and
// dissipates.
func LoadsInto(loads, arms []int) int {
	for i := range loads {
		loads[i] = 0
	}
	maxLoad := 0
	for _, a := range arms {
		loads[a]++
		if loads[a] > maxLoad {
			maxLoad = loads[a]
		}
	}
	return maxLoad
}

// SharedGain is the congestion-game payoff of one probe: a success's
// reward r is shared linearly with the load on the same arm —
// r/(1 + λ·(load−1)) — so an arm carrying the whole population pays ~r/λℓ
// per player, while a failure costs −1 regardless of load. The linear
// latency shape is the standard linear congestion game, for which
// constant-step MWU dynamics converge (Palaiopanos–Panageas–Piliouras).
func SharedGain(reward float64, load int, lambda float64) float64 {
	if reward <= 0 {
		return -1
	}
	if load < 1 {
		load = 1
	}
	return reward / (1 + lambda*float64(load-1))
}

// Profile measures the empirical distribution of MaxLoad over the given
// number of trials, returning mean and observed maximum. The experiment
// harness uses it to verify that Distributed congestion tracks
// Θ(ln n / ln ln n) while Standard/Slate congestion tracks Θ(n).
func Profile(n, trials int, r *rng.RNG) (mean float64, max int) {
	if trials <= 0 {
		panic("congestion: trials must be positive")
	}
	sum := 0
	for i := 0; i < trials; i++ {
		m := MaxLoad(n, n, r)
		sum += m
		if m > max {
			max = m
		}
	}
	return float64(sum) / float64(trials), max
}
