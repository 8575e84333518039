package wrs

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// LockedFenwick is the serialized baseline BenchmarkParallelSample
// measures ConcurrentAlias against: the dynamic Fenwick sampler behind one
// mutex, exposed through the same Forkable contract with per-slot streams
// seeded like ConcurrentAlias's. Each slot's draw sequence rides its own
// RNG, so it stays deterministic, but throughput serializes on the mutex;
// Contention counts how often a draw found it held.
type LockedFenwick struct {
	mu         sync.Mutex
	fen        Fenwick
	handles    []fenwickHandle
	contention atomic.Int64
}

// fenwickHandle is one slot's Stream over a LockedFenwick.
type fenwickHandle struct {
	owner *LockedFenwick
	rng   *rng.RNG
}

func (h *fenwickHandle) Len() int { return h.owner.Len() }

// Draw serializes on the owner's mutex; a failed TryLock is tallied as one
// contended acquisition before blocking.
func (h *fenwickHandle) Draw() int {
	l := h.owner
	if !l.mu.TryLock() {
		l.contention.Add(1)
		l.mu.Lock()
	}
	v := l.fen.Draw(h.rng)
	l.mu.Unlock()
	return v
}

// NewLockedFenwick creates a mutex-guarded Fenwick sampler whose slot i
// draws on the i-th stream of r.SplitN(slots). The tree starts empty: call
// Reload before the first draw.
func NewLockedFenwick(r *rng.RNG, slots int) *LockedFenwick {
	l := &LockedFenwick{handles: make([]fenwickHandle, slots)}
	for i, sr := range r.SplitN(slots) {
		l.handles[i] = fenwickHandle{owner: l, rng: sr}
	}
	return l
}

// Reload rebuilds the tree exactly from w under the mutex.
func (l *LockedFenwick) Reload(w []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fen.Reload(w)
}

func (l *LockedFenwick) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fen.Len()
}

func (l *LockedFenwick) Stream(slot int) Stream { return &l.handles[slot] }

// Contention returns the number of draws that found the mutex held — the
// serialization cost the lock-free alias path exists to remove.
func (l *LockedFenwick) Contention() int64 { return l.contention.Load() }

// BenchmarkParallelSample is the concurrent-sampling trio frozen into
// BENCH_PR9.json: 8 worker slots drawing from one k=16384 distribution
// through the serialized LockedFenwick baseline vs the lock-free frozen
// ConcurrentAlias, plus the sequential table build itself. ns/op is wall
// time over all b.N draws, so the locked/lock-free ratio is the aggregate
// draw-throughput speedup `benchjson -validate` gates at ≥4x.
func BenchmarkParallelSample(b *testing.B) {
	const k, streams = 16384, 8
	w := testWeights(k, 99)

	drawAll := func(b *testing.B, f Forkable) {
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / streams
		for s := 0; s < streams; s++ {
			n := per
			if s == 0 {
				n += b.N % streams
			}
			wg.Add(1)
			go func(s, n int) {
				defer wg.Done()
				h := f.Stream(s)
				sink := 0
				for i := 0; i < n; i++ {
					sink += h.Draw()
				}
				_ = sink
			}(s, n)
		}
		wg.Wait()
	}

	b.Run("fenwick-locked/k=16384/streams=8", func(b *testing.B) {
		lf := NewLockedFenwick(rng.New(1), streams)
		if err := lf.Reload(w); err != nil {
			b.Fatal(err)
		}
		drawAll(b, lf)
		b.ReportMetric(float64(lf.Contention()), "contended/total")
	})
	b.Run("alias/k=16384/streams=8", func(b *testing.B) {
		ca := NewConcurrentAlias(rng.New(1), streams)
		if err := ca.Reload(w); err != nil {
			b.Fatal(err)
		}
		drawAll(b, ca)
	})
	b.Run("alias-build/k=16384", func(b *testing.B) {
		ca := NewConcurrentAlias(rng.New(1), streams)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ca.Reload(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
