package repro

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/lang"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// The write-behind workload: a fresh mutant every round, so every eval
// is a cache miss that executes the suite — the phase-1/phase-2 probe
// hot path. The loop body runs ~20k interpreter steps per eval, the
// same shape (smaller n) as BenchmarkRunnerDuplicateProbeThroughput.
func storeBenchSuite() *testsuite.Suite {
	return &testsuite.Suite{Positive: []testsuite.Test{{
		Name: "count", Input: []int64{20000}, Want: []int64{20001}, MaxSteps: 200000,
	}}}
}

// storeBenchSrc yields a distinct program per round (the i-i constant
// changes the text, not the behavior), so nothing is served from cache.
func storeBenchSrc(i int) string {
	return "input n\nset i = " + itoa(i) + " - " + itoa(i) +
		"\nlabel loop\nif i > n goto done\nset i = i + 1\ngoto loop\nlabel done\nprint i\n"
}

// benchProbeOff is the baseline: no store, every round pays one suite
// execution.
func benchProbeOff(b *testing.B) {
	r := testsuite.NewRunner(storeBenchSuite())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Eval(context.Background(), lang.MustParse(storeBenchSrc(i)))
	}
}

// benchProbeCold attaches an empty store, so every round additionally
// enqueues a write-behind record — the persistence overhead under test.
// The store is flushed and closed off the clock.
func benchProbeCold(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatalf("opening store: %v", err)
	}
	r := testsuite.NewRunner(storeBenchSuite())
	r.AttachStore(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Eval(context.Background(), lang.MustParse(storeBenchSrc(i)))
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatalf("closing store: %v", err)
	}
}

// benchProbeWarm replays a workload whose verdicts a previous run
// already persisted: the runner warm-starts from the reopened store and
// every eval is a cache hit that never executes the suite — the payoff
// side of the trio.
func benchProbeWarm(b *testing.B) {
	const mutants = 256
	dir := b.TempDir()
	programs := make([]*lang.Program, mutants)
	for i := range programs {
		programs[i] = lang.MustParse(storeBenchSrc(i))
	}

	// A prior run records every verdict; reopen to warm-start from disk.
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		b.Fatalf("opening store: %v", err)
	}
	warmup := testsuite.NewRunner(storeBenchSuite())
	warmup.AttachStore(st)
	for _, p := range programs {
		warmup.Eval(context.Background(), p)
	}
	if err := st.Close(); err != nil {
		b.Fatalf("closing store after warmup: %v", err)
	}
	if st, err = store.Open(store.Options{Dir: dir}); err != nil {
		b.Fatalf("reopening store: %v", err)
	}

	r := testsuite.NewRunner(storeBenchSuite())
	r.AttachStore(st)
	if n := r.WarmStart(); n != mutants {
		b.Fatalf("warm-started %d entries, want %d", n, mutants)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Eval(context.Background(), programs[i%mutants])
	}
	b.StopTimer()
	if r.Evals() != 0 {
		b.Fatalf("warm run executed %d suite evaluations, want 0", r.Evals())
	}
	if err := st.Close(); err != nil {
		b.Fatalf("closing store: %v", err)
	}
}

// BenchmarkProbeWriteBehind is the cost/payoff trio of the persistent
// evaluation store on the probe hot path: off (no store), cold (empty
// store: every eval also enqueues a write-behind record), warm (store
// already holds every verdict: evals become cache hits). cold/off is
// the persistence overhead — TestProbeWriteBehindOverheadGate bounds it
// at 5% — and warm/off is the amortized win across runs.
func BenchmarkProbeWriteBehind(b *testing.B) {
	b.Run("off", benchProbeOff)
	b.Run("cold", benchProbeCold)
	b.Run("warm", benchProbeWarm)
}

// storeScaleSuites is the number of suite fingerprints BenchmarkStoreScale
// spreads its records over.
const storeScaleSuites = 8

// fillStore appends n distinct verdicts, round-robin over
// storeScaleSuites suites, to a store in dir opened with default options
// (background flusher included), and closes it. It also flushes every
// 4096 records so the bounded write-behind buffer never drops one.
func fillStore(tb testing.TB, dir string, n int) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		tb.Fatalf("opening store: %v", err)
	}
	for i := 0; i < n; i++ {
		st.PutEval(store.EvalRecord{Prog: uint64(i), Suite: uint64(i % storeScaleSuites),
			Level: store.LevelFitness, Safe: true, PosPassed: 1, PosTotal: 1})
		if (i+1)%4096 == 0 {
			if err := st.Flush(); err != nil {
				tb.Fatalf("flushing store: %v", err)
			}
		}
	}
	if d := st.Stats().Dropped; d != 0 {
		tb.Fatalf("the write-behind buffer dropped %d records", d)
	}
	if err := st.Close(); err != nil {
		tb.Fatalf("closing store: %v", err)
	}
}

// BenchmarkStoreScale prices what a store costs as it grows: at 10^4,
// 10^5 and 10^6 records over storeScaleSuites suites it measures append
// (fillStore into an empty directory, ending in Close), Open of the full
// store (the index rebuild), and Evals of one suite (a warm start's
// read). Each reports ns/record, per matching record for evals: a cost
// that grows linearly with the store keeps it flat across sizes, which
// is the pack-engine design point.
func BenchmarkStoreScale(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			perRecord := func(b *testing.B, records int) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
			}
			b.Run("append", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir := b.TempDir()
					b.StartTimer()
					fillStore(b, dir, n)
					b.StopTimer()
					os.RemoveAll(dir)
					b.StartTimer()
				}
				perRecord(b, n)
			})

			dir := b.TempDir()
			fillStore(b, dir, n)
			b.Run("open", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st, err := store.Open(store.Options{Dir: dir})
					if err != nil {
						b.Fatalf("opening store: %v", err)
					}
					b.StopTimer()
					if got := st.Stats().EvalRecords; got != n {
						b.Fatalf("reopened %d records, want %d", got, n)
					}
					if err := st.Close(); err != nil {
						b.Fatalf("closing store: %v", err)
					}
					b.StartTimer()
				}
				perRecord(b, n)
			})
			b.Run("evals", func(b *testing.B) {
				st, err := store.Open(store.Options{Dir: dir})
				if err != nil {
					b.Fatalf("opening store: %v", err)
				}
				defer st.Close()
				var got int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got = len(st.Evals(0))
				}
				b.StopTimer()
				if want := n / storeScaleSuites; got != want {
					b.Fatalf("Evals returned %d records, want %d", got, want)
				}
				perRecord(b, n/storeScaleSuites)
			})
		})
	}
}

// TestProbeWriteBehindOverheadGate asserts the ISSUE's performance bound:
// write-behind persistence may cost at most 5% on the probe hot path.
// Wall-clock benchmark comparisons are noisy on shared CI machines, so
// the gate is opt-in via STORE_BENCH=1 (the `make store` target sets it).
// It measures gatePairs off/cold pairs back to back, alternating which
// side runs first so slow drift of the host hits both alike, logs every
// pair's ratio, and gates on the median ratio: one preempted run moves
// one pair, not the verdict.
func TestProbeWriteBehindOverheadGate(t *testing.T) {
	if os.Getenv("STORE_BENCH") == "" {
		t.Skip("set STORE_BENCH=1 to run the write-behind overhead gate")
	}
	const gatePairs = 9
	ratios := make([]float64, gatePairs)
	for i := range ratios {
		var off, cold testing.BenchmarkResult
		if i%2 == 0 {
			off, cold = testing.Benchmark(benchProbeOff), testing.Benchmark(benchProbeCold)
		} else {
			cold, off = testing.Benchmark(benchProbeCold), testing.Benchmark(benchProbeOff)
		}
		ratios[i] = float64(cold.NsPerOp()) / float64(off.NsPerOp())
		t.Logf("pair %d: off %d ns/op, cold %d ns/op, overhead %.2f%%",
			i, off.NsPerOp(), cold.NsPerOp(), 100*(ratios[i]-1))
	}
	sort.Float64s(ratios)
	median := ratios[gatePairs/2]
	t.Logf("median overhead %.2f%% over %d pairs", 100*(median-1), gatePairs)
	if median > 1.05 {
		t.Errorf("median write-behind overhead %.2f%% exceeds the 5%% budget (pair ratios %v)",
			100*(median-1), ratios)
	}
}
