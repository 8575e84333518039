// Package simplex implements the geometry behind the Slate MWU variant
// (Sec. II-B/C of the paper).
//
// Choosing a slate of n distinct options from k according to a weight
// vector cannot be done by enumerating the C(k, n) subsets — the paper
// notes that with k = 1000 and n = 16 there are ~4.2×10^34 of them.
// Instead, the weight vector is capped and normalized so it lies in the
// polytope whose vertices are the incidence vectors of the slates (the
// (n, k)-hypersimplex). The paper then decomposes it into a convex
// combination of at most k vertices in O(k²) time and samples a vertex.
// Here Capper computes the capped projection without a full sort, and
// SystematicSample draws a slate with the same per-option marginal
// inclusion probabilities (the capped weights) in O(k). The sorting
// projection (CapDistribution) and the decomposition are kept in this
// package's tests as the references those two are checked against.
package simplex

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// floatTol absorbs roundoff in the samplers' invariants.
const floatTol = 1e-9

// Slate is one selected subset, represented as sorted option indices.
type Slate []int

// SystematicSample draws a slate of n distinct options whose marginal
// inclusion probabilities equal v_i exactly, where v must satisfy
// sum(v) = n and 0 <= v_i <= 1, in O(k) time (Madow's systematic
// sampling). A single uniform offset u is drawn; option i is selected iff
// the interval [C_{i-1}, C_i) of cumulative sums contains a point of
// u + Z. The joint distribution differs from the convex-decomposition
// sampler (inclusions of nearby indices are negatively correlated), but
// MWU's importance-weighted updates depend only on the marginals, so the
// two are interchangeable for learning; the decomposition (kept in this
// package's tests) remains the reference implementation and the O(k²)
// cost quoted in the paper.
func SystematicSample(v []float64, n int, r *rng.RNG) Slate {
	k := len(v)
	if n <= 0 || n > k {
		panic(fmt.Sprintf("simplex: invalid slate size %d for %d options", n, k))
	}
	total := 0.0
	for _, x := range v {
		if x < -floatTol || x > 1+1e-6 {
			panic(fmt.Sprintf("simplex: marginal %v outside [0,1]", x))
		}
		total += x
	}
	if math.Abs(total-float64(n)) > 1e-6*float64(n)+1e-9 {
		panic(fmt.Sprintf("simplex: marginals sum to %v, want %d", total, n))
	}
	u := r.Float64()
	out := make(Slate, 0, n)
	c := 0.0
	next := u
	for i := 0; i < k && len(out) < n; i++ {
		c += v[i]
		for next < c-floatTol && len(out) < n {
			out = append(out, i)
			next++
		}
	}
	// Roundoff can leave a shortfall; fill with the largest unselected
	// marginals (affects probabilities by at most the float tolerance).
	if len(out) < n {
		selected := make(map[int]bool, len(out))
		for _, i := range out {
			selected[i] = true
		}
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return v[order[a]] > v[order[b]] })
		for _, i := range order {
			if len(out) >= n {
				break
			}
			if !selected[i] {
				out = append(out, i)
				selected[i] = true
			}
		}
		sort.Ints(out)
	}
	return out
}
