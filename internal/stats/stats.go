// Package stats provides the small statistical toolkit used by the
// experiment harness: online moment accumulation (Welford) and the
// argmax and sum of a weight vector.
//
// Every table in the paper reports a mean and standard deviation over 100
// seeded replications; Summary is the accumulator those tables are built
// from.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of observations with Welford's online
// algorithm, which is numerically stable for long streams of values with
// large offsets (e.g. CPU-iteration counts in the hundreds of thousands).
type Summary struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary as "mean (stddev)" in the style of the
// paper's Tables II and III.
func (s *Summary) String() string {
	return fmt.Sprintf("%.1f (%.1f)", s.Mean(), s.StdDev())
}

// ArgMax returns the index of the largest element (first on ties) and -1
// for an empty slice.
func ArgMax(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best == -1 || x > xs[best] {
			best = i
		}
	}
	return best
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
