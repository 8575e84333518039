package simplex

import (
	"fmt"
	"math"
)

// Capper projects a weight vector p onto the distributions with every
// component at most 1/n: components are scaled up uniformly, any that
// exceeds the cap is pinned to 1/n, and the remainder is renormalized (the
// standard water-filling projection). The result sums to 1 and preserves
// the order of p. It is built for the Slate learner's per-iteration hot
// path: where the sorting reference (CapDistribution, in this package's
// tests) sorts all k components (O(k log k)), Capper partially selects
// only the top candidates that can possibly be pinned at the 1/n cap — the
// pinning loop provably pins fewer than n components (the floatTol slack
// on the pin condition keeps the n-th pin from ever firing while unpinned
// mass remains), so a running top-n min-heap is sufficient — and it reuses
// its buffers across calls, so a call is O(k + m log n) with zero
// allocations, where m is the number of components reaching the running
// n-th-largest (typically a handful once the weights separate).
//
// Capper is not safe for concurrent use; the returned slice is owned by
// the Capper and valid until the next Cap call.
type Capper struct {
	n      int
	q      []float64
	heap   []int     // min-heap of candidate indices, ordered by weight
	sorted []int     // heap drained into descending order
	p      []float64 // current input vector, for heap comparisons
}

// NewCapper returns a Capper for k-option vectors and slate size n. It
// panics on an invalid (k, n) pair.
func NewCapper(k, n int) *Capper {
	if n <= 0 || n > k {
		panic(fmt.Sprintf("simplex: invalid slate size %d for %d options", n, k))
	}
	return &Capper{
		n:      n,
		q:      make([]float64, k),
		heap:   make([]int, 0, n),
		sorted: make([]int, 0, n),
	}
}

// heapLess orders candidate indices by (weight asc, index desc), so the
// heap root is always the weakest candidate and eviction order — hence the
// selected set under ties — is deterministic.
func (c *Capper) heapLess(a, b int) bool {
	if c.p[a] != c.p[b] {
		return c.p[a] < c.p[b]
	}
	return a > b
}

func (c *Capper) heapDown(i int) {
	h := c.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && c.heapLess(h[r], h[l]) {
			m = r
		}
		if !c.heapLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (c *Capper) heapUp(i int) {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heapLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Cap projects p onto the set of distributions with every component at
// most 1/n, exactly as CapDistribution does (same arithmetic, in the same
// order), and returns the Capper-owned result slice. It panics on
// negative/NaN weights or a non-positive or infinite total, and on a
// length mismatch with the Capper's k.
func (c *Capper) Cap(p []float64) []float64 {
	k := len(c.q)
	if len(p) != k {
		panic(fmt.Sprintf("simplex: Capper built for %d options, got %d", k, len(p)))
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
	n := c.n
	cap := 1.0 / float64(n)

	// Partial top-n selection: once the heap is full, components below the
	// running root are rejected with a single compare; only components
	// reaching the running n-th-largest pay a heap operation.
	c.p = p
	c.heap = c.heap[:0]
	for i := range p {
		if len(c.heap) < n {
			c.heap = append(c.heap, i)
			c.heapUp(len(c.heap) - 1)
			continue
		}
		if !c.heapLess(c.heap[0], i) {
			continue
		}
		c.heap[0] = i
		c.heapDown(0)
	}

	// Drain the heap into descending order (pop ascending, fill backward).
	c.sorted = c.sorted[:len(c.heap)]
	for i := len(c.heap) - 1; i >= 0; i-- {
		c.sorted[i] = c.heap[0]
		last := len(c.heap) - 1
		c.heap[0] = c.heap[last]
		c.heap = c.heap[:last]
		c.heapDown(0)
	}

	// Water-filling over the descending prefix — the same loop as
	// CapDistribution, with idx[:pinned] replaced by c.sorted[:pinned].
	q := c.q
	for i := range q {
		q[i] = 0
	}
	pinned := 0
	remaining := total
	for {
		leftover := 1 - float64(pinned)*cap
		if leftover <= 0 {
			break
		}
		if pinned == len(c.sorted) {
			// Unreachable for pinned < n by the loop bound; guard anyway.
			break
		}
		largest := p[c.sorted[pinned]]
		if largest*leftover/remaining <= cap+floatTol {
			scale := leftover / remaining
			for i, v := range p {
				q[i] = v * scale
			}
			for _, i := range c.sorted[:pinned] {
				q[i] = cap
			}
			return q
		}
		q[c.sorted[pinned]] = cap
		remaining -= largest
		pinned++
		if remaining <= 0 && pinned < k {
			// The unpinned components carry no mass: spread the leftover
			// probability uniformly over them, as CapDistribution does.
			leftover := 1 - float64(pinned)*cap
			if leftover > 0 {
				share := leftover / float64(k-pinned)
				for i := range q {
					q[i] = share
				}
				for _, i := range c.sorted[:pinned] {
					q[i] = cap
				}
			}
			return q
		}
	}
	return q
}
