// Package wrs implements sub-linear weighted random sampling for the MWU
// hot paths.
//
// Every probe cycle of every MWU realization must turn a weight vector
// over k options into sampled option indices. The naive route —
// rng.Categorical, an O(k) re-sum plus linear scan per draw — makes
// per-iteration sampling cost O(n·k) for n agents, which at the largest
// evaluation sizes (k = 16384, n = ⌈0.05k⌉ ≈ 819) dominates iteration
// throughput once the fitness cache absorbs duplicate probe evaluations.
// Following Hübschle-Schneider & Sanders ("Parallel Weighted Random
// Sampling"), the package keeps one structure per kind of distribution:
//
//   - Fenwick — a binary indexed tree over the weights: O(log k) draw by
//     prefix-sum descent, O(log k) point update. The structure for a
//     distribution that mutates between draws (Standard's shared weight
//     vector, updated every cycle).
//   - Alias — an alias table: O(k) sequential build, O(1) draw. The
//     structure for a distribution that is frozen across many draws (a
//     baseline's fault-localization weights, a learner's weights frozen
//     for one probe cycle).
//
// Both consume exactly one RNG variate (one Float64) per draw and contain
// no internal randomness or goroutines, so results under a fixed rng.RNG
// seed are reproducible at any worker count.
//
// For concurrent drawing, ConcurrentAlias pairs a frozen Alias with
// per-slot RNG streams behind the Forkable/Stream contract: each worker
// slot draws lock-free on its own deterministic stream, so a slot's draw
// sequence is a pure function of (seed, slot), independent of scheduling
// and worker count — the same discipline the Run driver's per-slot probe
// streams follow.
package wrs

import (
	"errors"
	"math"
)

// ErrBadWeight reports a negative or NaN weight.
var ErrBadWeight = errors.New("wrs: weights must be non-negative and not NaN")

// ErrBadTotal reports a total weight that is not positive and finite.
var ErrBadTotal = errors.New("wrs: total weight must be positive and finite")

// validateTotal panics unless total is positive and finite, mirroring
// rng.Categorical's contract.
func validateTotal(total float64) {
	if !(total > 0) || math.IsInf(total, 1) {
		panic("wrs: sampler requires positive finite total weight")
	}
}
