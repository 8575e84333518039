package wrs

import (
	"math"

	"repro/internal/rng"
)

// Alias is an alias table: O(k) build, O(1) draw. It is the sampler of
// choice for a distribution that stays fixed across many draws — a
// baseline's fault-localization weights (static for a whole repair run) or
// a learner's weight vector frozen for one concurrent probe cycle. The
// table is immutable between Reload calls and safe for concurrent Draw
// calls, since Draw touches only the caller-supplied RNG.
//
// Construction is one sequential sweep rather than Vose's worklist
// pairing. After scaling the weights to mean column mass 1, options split
// into "lights" (scaled < 1, carrying a deficit) and "heavies" (scaled ≥
// 1, carrying a surplus), each taken in ascending option order. With d the
// running deficit of the lights so far and s the running surplus of the
// heavies up to the current one:
//
//   - a light donates its deficit to the first heavy whose running surplus
//     covers the deficits before it — alias = that heavy, prob = the
//     light's own scaled weight;
//   - a heavy, once the running deficit first exceeds its running
//     surplus, keeps residual prob = s + 1 − d and donates the rest to
//     the next heavy — alias = that heavy;
//   - columns the sweep never exhausts (roundoff slack at either end, and
//     always the last heavy) hold exactly their own option.
//
// Aliases only ever point at heavies, so no column aliases to a
// zero-weight option.
type Alias struct {
	prob  []float64 // acceptance threshold for each column, in [0, 1]
	alias []int32   // donor option when the column's threshold rejects
}

// NewAlias builds the table for the (unnormalized, non-negative) weight
// vector w in O(k). It returns ErrBadWeight if a weight is negative or
// NaN, and ErrBadTotal if the total weight is not positive and finite.
func NewAlias(w []float64) (*Alias, error) {
	a := &Alias{}
	if err := a.Reload(w); err != nil {
		return nil, err
	}
	return a, nil
}

// Reload rebuilds the table in place from w, reusing its storage, with
// the same errors as NewAlias. On error the table is left unusable and
// must be Reloaded successfully before the next Draw. Reload must not run
// concurrently with Draw calls on the same table.
func (a *Alias) Reload(w []float64) error {
	n := len(w)
	total := 0.0
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			return ErrBadWeight
		}
		total += wi
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return ErrBadTotal
	}
	a.prob = growFloats(a.prob, n)
	a.alias = growInts(a.alias, n)
	mult, up := float64(n)/total, 1.0
	if math.IsInf(mult, 1) {
		// A subnormal total overflows n/total: scale the weights up by an
		// exact power of two first, or zero weights would scale to NaN.
		up = 0x1p600
		mult = float64(n) / (total * up)
	}
	// The explicit conversion rounds the product, so no platform fuses it
	// into the running sums below and the table is the same everywhere.
	scaled := func(i int) float64 { return float64(w[i] * up * mult) }
	// next returns the first option at or after i on the given side.
	next := func(i int, light bool) int {
		for i < n && (scaled(i) < 1) != light {
			i++
		}
		return i
	}
	l, h := next(0, true), next(0, false)
	d, s := 0.0, 0.0
	if h < n {
		s = scaled(h) - 1
	}
	for h < n {
		if l < n && s >= d {
			// Light l donates its deficit to heavy h.
			a.prob[l] = scaled(l)
			a.alias[l] = int32(h)
			d += 1 - scaled(l)
			l = next(l+1, true)
			continue
		}
		if s >= d {
			// Lights exhausted with surplus to spare: h and every later
			// heavy keep their own option.
			break
		}
		succ := next(h+1, false)
		if succ == n {
			// The last heavy has no successor to donate its residual to.
			break
		}
		a.prob[h] = s + 1 - d
		a.alias[h] = int32(succ)
		h = succ
		s += scaled(h) - 1
	}
	for ; l < n; l = next(l+1, true) {
		// Roundoff slack: the total deficit outran the total surplus. A
		// zero-weight option can never land here — its full unit deficit
		// dwarfs the ulp-scale slack — so prob 1 is safe.
		a.prob[l], a.alias[l] = 1, int32(l)
	}
	for ; h < n; h = next(h+1, false) {
		a.prob[h], a.alias[h] = 1, int32(h)
	}
	return nil
}

// growFloats resizes s to n entries, reusing capacity when it suffices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growInts resizes s to n entries, reusing capacity when it suffices.
func growInts(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// Len returns the number of options.
func (a *Alias) Len() int { return len(a.prob) }

// Draw samples one option in O(1), consuming exactly one variate: the
// integer part of u·k picks a column, the fractional part decides between
// the column's own option and its alias donor.
func (a *Alias) Draw(r *rng.RNG) int {
	n := len(a.prob)
	u := r.Float64() * float64(n)
	i := int(u)
	if i >= n {
		// Float64()·n can round up to n when Float64 is within an ulp of 1.
		i = n - 1
	}
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
