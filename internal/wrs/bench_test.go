package wrs

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// benchAgents mirrors the factory's Standard agent count: n = ⌈0.05k⌉
// with a floor of 16 — the draw batch each update cycle must serve.
func benchAgents(k int) int {
	n := (k*5 + 99) / 100
	if n < 16 {
		n = 16
	}
	return n
}

var benchKs = []int{64, 1024, 16384}

// BenchmarkWRSDraw compares the per-iteration sampling strategies at the
// evaluation's dataset sizes: naive per-agent Categorical (the O(n·k)
// seed behaviour), Fenwick prefix-descent (O(n·log k)), and the alias
// table rebuilt per iteration (O(k) build + O(n) draws, the fair
// dynamic-weights comparison) as well as draw-only (the
// static-distribution case).
func BenchmarkWRSDraw(b *testing.B) {
	for _, k := range benchKs {
		w := testWeights(k, uint64(k))
		n := benchAgents(k)
		out := make([]int, n)

		b.Run(fmt.Sprintf("naive/k=%d", k), func(b *testing.B) {
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = r.Categorical(w)
				}
			}
		})
		b.Run(fmt.Sprintf("fenwick/k=%d", k), func(b *testing.B) {
			f := mustFenwick(b, w)
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = f.Draw(r)
				}
			}
		})
		b.Run(fmt.Sprintf("alias-rebuild/k=%d", k), func(b *testing.B) {
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := mustAlias(b, w)
				for j := range out {
					out[j] = a.Draw(r)
				}
			}
		})
		b.Run(fmt.Sprintf("alias-static/k=%d", k), func(b *testing.B) {
			a := mustAlias(b, w)
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = a.Draw(r)
				}
			}
		})
	}
}

// BenchmarkWRSUpdate isolates the incremental maintenance cost: a Fenwick
// point update (O(log k)) against the full O(k) rebuild that a
// non-incremental structure would pay per update cycle.
func BenchmarkWRSUpdate(b *testing.B) {
	for _, k := range benchKs {
		w := testWeights(k, uint64(k))
		b.Run(fmt.Sprintf("fenwick-add/k=%d", k), func(b *testing.B) {
			f := mustFenwick(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Add(i%k, 1e-6)
			}
		})
		b.Run(fmt.Sprintf("rebuild/k=%d", k), func(b *testing.B) {
			f := mustFenwick(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Reload(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
