package wrs

import (
	"math"

	"repro/internal/rng"
)

// Fenwick is a dynamic weighted sampler: a binary indexed tree over the
// weight vector supporting O(log k) point updates and O(log k) draws by
// prefix-sum descent. It is the sampler of choice when the distribution
// changes between draws, as Standard's shared weight vector does on every
// update cycle.
//
// Draws select option i with probability w_i / Σw, matching
// rng.Categorical's boundary semantics: a draw lands on the smallest index
// whose cumulative weight strictly exceeds the uniform variate, so
// zero-weight options are never selected. The tree's internal partial sums
// associate additions differently from a left-to-right scan, so an
// individual draw can differ from rng.Categorical's by one index when the
// variate falls within a few ulps of a bucket boundary — an event of
// probability ~k·2⁻⁵³ per draw. Incremental Add calls accumulate
// ordinary floating-point drift in the internal nodes; Reload rebuilds the
// tree exactly and callers that update heavily should invoke it
// periodically (Standard does, on the same cadence it re-syncs its scalar
// weight total).
//
// Fenwick is not safe for concurrent use.
type Fenwick struct {
	tree []float64 // 1-based: tree[i] holds the sum of w[(i-lowbit(i)) .. i-1]
	n    int
	mask int // highest power of two <= n, the descent's starting stride
}

// NewFenwick builds a sampler over a copy of w, returning ErrBadWeight if
// any weight is negative or NaN. A zero-length or all-zero vector is
// accepted at build time; Draw panics until the total weight is positive.
func NewFenwick(w []float64) (*Fenwick, error) {
	f := &Fenwick{}
	if err := f.Reload(w); err != nil {
		return nil, err
	}
	return f, nil
}

// Reload rebuilds the tree exactly from w in O(k), discarding any drift
// accumulated by incremental updates. The tree storage is reused when the
// length is unchanged. It returns ErrBadWeight for a negative or NaN
// weight and leaves the tree unchanged.
func (f *Fenwick) Reload(w []float64) error {
	for _, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			return ErrBadWeight
		}
	}
	f.n = len(w)
	if cap(f.tree) >= f.n+1 {
		f.tree = f.tree[:f.n+1]
	} else {
		f.tree = make([]float64, f.n+1)
	}
	copy(f.tree[1:], w)
	// In-place O(k) build: push each node's sum into its parent range.
	for i := 1; i <= f.n; i++ {
		if j := i + i&(-i); j <= f.n {
			f.tree[j] += f.tree[i]
		}
	}
	f.mask = 1
	for f.mask<<1 <= f.n {
		f.mask <<= 1
	}
	return nil
}

// Len returns the number of options.
func (f *Fenwick) Len() int { return f.n }

// Add adjusts option i's weight by delta in O(log k). The caller is
// responsible for keeping weights non-negative (MWU updates multiply by
// positive factors, so this holds by construction there).
func (f *Fenwick) Add(i int, delta float64) {
	for j := i + 1; j <= f.n; j += j & (-j) {
		f.tree[j] += delta
	}
}

// Weight reconstructs option i's current weight in O(log k).
func (f *Fenwick) Weight(i int) float64 {
	j := i + 1
	v := f.tree[j]
	bottom := j - j&(-j)
	j--
	for j > bottom {
		v -= f.tree[j]
		j -= j & (-j)
	}
	return v
}

// Total returns the sum of all weights in O(log k).
func (f *Fenwick) Total() float64 {
	t := 0.0
	for j := f.n; j > 0; j -= j & (-j) {
		t += f.tree[j]
	}
	return t
}

// Find returns the smallest option index whose cumulative weight strictly
// exceeds u, by descending the tree from its largest stride — the
// logarithmic analogue of rng.Categorical's linear scan. For u at or above
// the total weight (floating-point slack at the top boundary) it falls
// back to the last positively-weighted option, matching Categorical.
func (f *Fenwick) Find(u float64) int {
	pos := 0
	for bit := f.mask; bit > 0; bit >>= 1 {
		if next := pos + bit; next <= f.n && f.tree[next] <= u {
			u -= f.tree[next]
			pos = next
		}
	}
	if pos >= f.n {
		// u reached or exceeded the total: step back to the last option
		// with positive weight, as Categorical's slack fallback does.
		for pos = f.n - 1; pos > 0 && f.Weight(pos) <= 0; pos-- {
		}
	}
	return pos
}

// Draw samples one option proportionally to the current weights,
// consuming exactly one variate. It panics if the total weight is not
// positive and finite.
func (f *Fenwick) Draw(r *rng.RNG) int {
	t := f.Total()
	validateTotal(t)
	return f.Find(r.Float64() * t)
}
