package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mwu"
	"repro/internal/rng"
	"repro/internal/wrs"
)

// sampleAgents mirrors the experiment harness's Standard agent scaling:
// n = ⌈0.05·k⌉ with a floor of 16 — the batch of draws every update cycle
// must serve at dataset size k.
func sampleAgents(k int) int {
	n := (k*5 + 99) / 100
	if n < 16 {
		n = 16
	}
	return n
}

// sampleWeights builds an MWU-mid-run-shaped weight vector: most options
// decayed, a few amplified.
func sampleWeights(k int, seed uint64) []float64 {
	r := rng.New(seed)
	w := make([]float64, k)
	for i := range w {
		w[i] = math.Exp(4 * (r.Float64() - 0.7))
	}
	return w
}

var sampleKs = []int{64, 1024, 16384}

// BenchmarkSample is the headline sampling comparison: the per-iteration
// cost of assigning options to all n agents at dataset size k, for the
// naive per-agent linear scan (the original Standard.Sample) and the
// Fenwick prefix descent the production learner uses, which must beat the
// naive scan by ≥10× at k=16384 (see TestSampleSpeedupOverNaive).
func BenchmarkSample(b *testing.B) {
	for _, k := range sampleKs {
		w := sampleWeights(k, uint64(k))
		n := sampleAgents(k)
		out := make([]int, n)

		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			r := rng.New(9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = r.Categorical(w)
				}
			}
		})
		b.Run(fmt.Sprintf("fenwick/k=%d", k), func(b *testing.B) {
			f, err := wrs.NewFenwick(w)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = f.Draw(r)
				}
			}
		})
	}
}

// BenchmarkSampleUpdateCycle measures the full production loop — Sample
// plus Update through the Standard learner — so the wrs wiring (incremental
// Fenwick maintenance, owned result slices) is benchmarked end to end, not
// just the draw primitive.
func BenchmarkSampleUpdateCycle(b *testing.B) {
	for _, k := range sampleKs {
		b.Run(fmt.Sprintf("standard/k=%d", k), func(b *testing.B) {
			s := mwu.NewStandard(mwu.StandardConfig{K: k, Agents: sampleAgents(k)}, rng.New(uint64(k)))
			rewards := make([]float64, sampleAgents(k))
			for j := range rewards {
				rewards[j] = float64(j % 2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arms := s.Sample()
				s.Update(arms, rewards)
			}
		})
		b.Run(fmt.Sprintf("slate/k=%d", k), func(b *testing.B) {
			s := mwu.NewSlate(mwu.SlateConfig{K: k}, rng.New(uint64(k)))
			rewards := make([]float64, s.Agents()) // one reward per slate member
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arms := s.Sample()
				s.Update(arms, rewards)
			}
		})
	}
}

// TestSampleSpeedupOverNaive is the acceptance check behind
// BenchmarkSample: at k=16384 the production draw path must beat the
// naive per-agent scan by at least 10×, and must reproduce the naive
// sampler's distribution (chi-squared on the same weight vector).
// The true gap is two to three orders of magnitude, so the 10× assertion
// holds with huge margin even on noisy CI machines.
func TestSampleSpeedupOverNaive(t *testing.T) {
	const k = 16384
	w := sampleWeights(k, k)
	n := sampleAgents(k)
	out := make([]int, n)
	const rounds = 40

	naive := rng.New(17)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for j := range out {
			out[j] = naive.Categorical(w)
		}
	}
	naiveDur := time.Since(start)

	f, err := wrs.NewFenwick(w)
	if err != nil {
		t.Fatal(err)
	}
	fr := rng.New(17)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for j := range out {
			out[j] = f.Draw(fr)
		}
	}
	fenDur := time.Since(start)

	if ratio := float64(naiveDur) / float64(fenDur); ratio < 10 {
		t.Errorf("fenwick speedup %.1fx < 10x (naive %v, fenwick %v)", ratio, naiveDur, fenDur)
	}

	// Distribution match: chi-squared of the fast path's draw counts
	// against the weight proportions, on a coarsened 64-bucket projection
	// so expected counts are large enough for the χ² approximation.
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	const draws = 400000
	const buckets = 64
	groupWeight := make([]float64, buckets)
	for i, wi := range w {
		groupWeight[i*buckets/k] += wi
	}
	check := func(name string, drawBatch func(r *rng.RNG, out []int)) {
		counts := make([]float64, buckets)
		r := rng.New(23)
		batch := make([]int, 1000)
		for d := 0; d < draws; d += len(batch) {
			drawBatch(r, batch)
			for _, v := range batch {
				counts[v*buckets/k]++
			}
		}
		chi2 := 0.0
		for g := 0; g < buckets; g++ {
			exp := draws * groupWeight[g] / total
			d := counts[g] - exp
			chi2 += d * d / exp
		}
		// 99.9th percentile of χ²(63) ≈ 63 + 4.9·√63 + 10.
		if limit := float64(buckets-1) + 4.9*math.Sqrt(float64(buckets-1)) + 10; chi2 > limit {
			t.Errorf("%s: chi-squared %.1f exceeds %.1f — distribution mismatch", name, chi2, limit)
		}
	}
	check("fenwick", func(r *rng.RNG, out []int) {
		for j := range out {
			out[j] = f.Draw(r)
		}
	})
}
