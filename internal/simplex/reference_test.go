package simplex

// The paper's Sec. II-C construction, kept as the reference for the
// production path: CapDistribution is the sorting water-filling
// projection Capper must match, and the O(k²) convex decomposition is the
// sampler whose per-option marginals SystematicSample must match.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// CapDistribution projects the probability vector p onto the set of
// distributions with all components at most 1/n: components are scaled up
// uniformly, any component exceeding the cap is pinned to 1/n, and the
// remainder is renormalized (the standard water-filling projection). The
// result q satisfies sum(q) = 1, q_i <= 1/n, and preserves the order of p.
// It panics if p has fewer than n components or non-positive total mass.
func CapDistribution(p []float64, n int) []float64 {
	k := len(p)
	if n <= 0 || n > k {
		panic(fmt.Sprintf("simplex: invalid slate size %d for %d options", n, k))
	}
	total := 0.0
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			panic("simplex: negative or NaN weight")
		}
		total += v
	}
	if !(total > 0) || math.IsInf(total, 1) {
		panic("simplex: non-positive or infinite total weight")
	}
	cap := 1.0 / float64(n)

	// Sort indices by weight descending; pin the largest components to the
	// cap one at a time until the scaled remainder fits under the cap.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p[idx[a]] > p[idx[b]] })

	q := make([]float64, k)
	pinned := 0        // number of components pinned at the cap
	remaining := total // mass of unpinned components of p
	for pinned < k {
		// Scale factor that would make unpinned components sum to the
		// leftover probability mass.
		leftover := 1 - float64(pinned)*cap
		if leftover <= 0 {
			// All mass is consumed by pinned components (only possible
			// when pinned == n and the rest get zero).
			break
		}
		largest := p[idx[pinned]]
		if largest*leftover/remaining <= cap+floatTol {
			// No more components exceed the cap after scaling.
			scale := leftover / remaining
			for _, i := range idx[pinned:] {
				q[i] = p[i] * scale
			}
			break
		}
		q[idx[pinned]] = cap
		remaining -= largest
		pinned++
		if remaining <= 0 && pinned < k {
			// The unpinned components of p carry no mass. Any probability
			// not consumed by the pinned components is spread uniformly
			// over them (e.g. p = [1,0,0] with n = 2 caps to
			// [1/2, 1/4, 1/4]) so the result is still a distribution.
			leftover := 1 - float64(pinned)*cap
			if leftover > 0 {
				share := leftover / float64(k-pinned)
				for _, i := range idx[pinned:] {
					q[i] = share
				}
			}
			break
		}
	}
	return q
}

// Component is one term of a convex decomposition: take slate S with
// probability Coeff.
type Component struct {
	Coeff float64
	Slate Slate
}

// Decompose writes the vector v (with sum(v) = n·μ for some μ in (0,1]
// and 0 <= v_i <= μ; callers typically pass v_i = n·q_i with μ = 1) as a
// convex combination of incidence vectors of n-subsets. It returns at most
// k components whose coefficients sum to μ. The greedy step peels off the
// top-n components with the largest feasible coefficient; each iteration
// retires at least one tight constraint, so at most k iterations run and
// the total cost is O(k²) (matching the paper's Sec. II-C analysis).
func Decompose(v []float64, n int) []Component {
	k := len(v)
	if n <= 0 || n > k {
		panic(fmt.Sprintf("simplex: invalid slate size %d for %d options", n, k))
	}
	w := append([]float64(nil), v...)
	mu := 0.0
	for _, x := range w {
		if x < -floatTol {
			panic("simplex: negative component")
		}
		mu += x
	}
	mu /= float64(n)
	if mu <= floatTol {
		panic("simplex: zero mass vector")
	}
	for _, x := range w {
		if x > mu+1e-6 {
			panic(fmt.Sprintf("simplex: component %v exceeds mass bound %v", x, mu))
		}
	}

	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	var out []Component
	for iter := 0; iter <= k+1; iter++ {
		if mu <= floatTol {
			return out
		}
		// Top-n components form the slate.
		sort.Slice(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
		slate := make(Slate, n)
		copy(slate, order[:n])
		sort.Ints(slate)

		// Largest coefficient keeping the invariant 0 <= w_i <= μ' for the
		// next round: limited by the smallest on-slate value and by the
		// gap between μ and the largest off-slate value.
		theta := w[order[n-1]]
		if n < k {
			if gap := mu - w[order[n]]; gap < theta {
				theta = gap
			}
		}
		if theta > mu {
			theta = mu
		}
		if theta <= floatTol {
			// Numerically stuck: dump the remaining mass on this slate.
			// The invariants guarantee this only happens within roundoff
			// of completion.
			out = append(out, Component{Coeff: mu, Slate: slate})
			return out
		}
		for _, i := range slate {
			w[i] -= theta
			if w[i] < 0 {
				w[i] = 0
			}
		}
		mu -= theta
		out = append(out, Component{Coeff: theta, Slate: slate})
	}
	panic("simplex: decomposition failed to terminate (invariant violation)")
}

// SampleSlate draws one slate of size n according to the capped projection
// of the weight vector w: it caps w, decomposes, and samples a component.
// The marginal probability that option i appears in the slate equals the
// capped probability n·q_i.
func SampleSlate(w []float64, n int, r *rng.RNG) (Slate, []float64) {
	q := CapDistribution(w, n)
	v := make([]float64, len(q))
	for i, qi := range q {
		v[i] = float64(n) * qi
	}
	comps := Decompose(v, n)
	coeffs := make([]float64, len(comps))
	total := 0.0
	for i, c := range comps {
		coeffs[i] = c.Coeff
		total += c.Coeff
	}
	return comps[r.CategoricalTotal(coeffs, total)].Slate, q
}

// Reconstruct sums coeff·indicator(slate) over the components, to verify
// that a decomposition reproduces its input vector.
func Reconstruct(comps []Component, k int) []float64 {
	out := make([]float64, k)
	for _, c := range comps {
		for _, i := range c.Slate {
			out[i] += c.Coeff
		}
	}
	return out
}
