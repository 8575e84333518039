package obs

import (
	"math"
	"sort"
	"testing"
)

// exactQuantile is the reference the histogram estimate is judged
// against: the nearest-rank quantile of the raw sorted samples.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// bucketWidthAt returns the width of the bucket containing v — the
// resolution limit of any bucketed estimate, and therefore the error
// tolerance the interpolated quantile must stay within.
func bucketWidthAt(bounds []float64, v float64) float64 {
	lo := 0.0
	for _, hi := range bounds {
		if v <= hi {
			return hi - lo
		}
		lo = hi
	}
	return math.Inf(1)
}

func TestHistogramQuantileAgainstExactSamples(t *testing.T) {
	bounds := []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}
	reg := NewRegistry()
	h := reg.Histogram("test.latency", bounds)

	// A deterministic right-skewed sample set, latency-shaped: a dense
	// body of small values and a sparse tail.
	var samples []float64
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := 0.5 + float64(x%200)/10 // 0.5 .. 20.4: the body
		if x%17 == 0 {
			v *= 12 // 6 .. 245: the tail
		}
		samples = append(samples, v)
		h.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)

	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := quantile(h, q)
		want := exactQuantile(sorted, q)
		if tol := bucketWidthAt(bounds, want); math.Abs(got-want) > tol {
			t.Errorf("Quantile(%v) = %v, exact = %v (tolerance %v)", q, got, want, tol)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{10, 20}
	reg := NewRegistry()

	empty := reg.Histogram("test.empty", bounds)
	if got := quantile(empty, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}

	// Everything in the +Inf bucket: the estimate saturates at the
	// highest finite bound rather than inventing a value.
	inf := reg.Histogram("test.inf", bounds)
	inf.Observe(1000)
	inf.Observe(2000)
	if got := quantile(inf, 0.5); got != 20 {
		t.Errorf("+Inf-bucket Quantile = %v, want highest bound 20", got)
	}

	// Clamping: out-of-range q behaves as 0 / 1.
	h := reg.Histogram("test.clamp", bounds)
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if lo, hi := quantile(h, -1), quantile(h, 2); lo != quantile(h, 0) || hi != quantile(h, 1) {
		t.Errorf("clamping broken: Quantile(-1)=%v Quantile(0)=%v Quantile(2)=%v Quantile(1)=%v",
			lo, quantile(h, 0), hi, quantile(h, 1))
	}

	// Mismatched snapshot shapes (a foreign scrape) fail closed.
	if got := QuantileFromBuckets([]float64{1}, []int64{1}, 0.5); !math.IsNaN(got) {
		t.Errorf("mismatched bucket shape Quantile = %v, want NaN", got)
	}
}

// quantile is QuantileFromBuckets over h's current buckets.
func quantile(h *Histogram, q float64) float64 {
	b, c := h.Buckets()
	return QuantileFromBuckets(b, c, q)
}
