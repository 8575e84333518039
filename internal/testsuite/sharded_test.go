package testsuite

import (
	"context"

	"fmt"
	"sync"
	"testing"

	"repro/internal/lang"
)

// TestShardedRunnerConcurrentDistinctMutants hammers the cache with many
// goroutines evaluating an overlapping set of distinct mutants.
// Singleflight deduplication must guarantee exactly one suite execution
// per distinct program, no matter how the goroutines interleave (run with
// -race; this is the concurrency regression test for the Runner).
func TestShardedRunnerConcurrentDistinctMutants(t *testing.T) {
	const distinct = 100
	const goroutines = 16

	programs := make([]*lang.Program, distinct)
	for i := range programs {
		programs[i] = lang.MustParse(fmt.Sprintf("print %d\n", i))
	}
	// Suite expecting output 0: program 0 repairs, the rest fail.
	s := &Suite{Positive: []Test{{Name: "p", Input: nil, Want: []int64{0}}}}
	r := NewRunner(s)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < distinct; i++ {
				// Different goroutines walk the programs in different
				// orders so their lookups interleave.
				p := programs[(i*(g+1))%distinct]
				f := r.Eval(context.Background(), p)
				want := 0
				if (i*(g+1))%distinct == 0 {
					want = 1
				}
				if f.PosPassed != want {
					t.Errorf("goroutine %d: program %d fitness %v", g, (i*(g+1))%distinct, f)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if got := r.Evals(); got != distinct {
		t.Fatalf("evals = %d, want exactly %d (one per distinct mutant)", got, distinct)
	}
	total := int64(goroutines * distinct)
	if r.Evals()+r.CacheHits() != total {
		t.Fatalf("evals %d + hits %d != %d calls", r.Evals(), r.CacheHits(), total)
	}
}

// TestShardedRunnerSingleflight verifies that N goroutines probing the
// same mutant at the same moment execute the suite exactly once: the rest
// join the in-flight evaluation and share its result.
func TestShardedRunnerSingleflight(t *testing.T) {
	// A program that takes a while, so concurrent callers reliably find
	// the first evaluation still in flight.
	src := `input n
set i = 0
label loop
if i > n goto done
set i = i + 1
goto loop
label done
print i
`
	p := lang.MustParse(src)
	s := &Suite{Positive: []Test{{Name: "slow", Input: []int64{200000}, Want: []int64{200001}, MaxSteps: 2000000}}}
	r := NewRunner(s)

	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if f := r.Eval(context.Background(), p.Clone()); !f.Safe() {
				t.Error("slow program reported unsafe")
			}
		}()
	}
	close(start)
	wg.Wait()

	if r.Evals() != 1 {
		t.Fatalf("evals = %d, want 1 (concurrent duplicates must singleflight)", r.Evals())
	}
	if r.CacheHits() != goroutines-1 {
		t.Fatalf("cache hits = %d, want %d", r.CacheHits(), goroutines-1)
	}
	if d := r.DedupSuppressed(); d > goroutines-1 {
		t.Fatalf("dedup-suppressed = %d exceeds waiter count", d)
	}
}

// TestShardedRunnerMixedLevelsConcurrent drives Eval, Safe and Outcome on
// the same programs from many goroutines: answers must stay consistent
// with each other at every interleaving (exercises the level-upgrade path
// of the unified cache entry under -race).
func TestShardedRunnerMixedLevelsConcurrent(t *testing.T) {
	good := lang.MustParse(sumSrc)
	bad := lang.MustParse(buggySumSrc)
	r := NewRunner(sumSuite())

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				p, wantSafe, wantRepair := good, true, true
				if (g+i)%2 == 1 {
					p, wantSafe, wantRepair = bad, false, false
				}
				switch i % 3 {
				case 0:
					f := r.Eval(context.Background(), p)
					if f.Safe() != wantSafe || f.Repair() != wantRepair {
						t.Errorf("Eval: fitness %v", f)
						return
					}
				case 1:
					if got := r.Safe(p); got != wantSafe {
						t.Errorf("Safe = %v, want %v", got, wantSafe)
						return
					}
				case 2:
					safe, repair := r.Outcome(p)
					if safe != wantSafe || repair != wantRepair {
						t.Errorf("Outcome = (%v,%v)", safe, repair)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	// Knowledge only ever upgrades: at most one evaluation per (program,
	// level) triple can have run, and safe/unsafe shortcuts may save more.
	if r.Evals() > 6 {
		t.Fatalf("evals = %d, want at most 6 (2 programs × 3 levels)", r.Evals())
	}
}

// TestShardedRunnerUnsafeAnswersOutcome checks the unified entry's
// shortcut: a program already known unsafe answers Outcome queries without
// another suite run (unsafe implies not a repair).
func TestShardedRunnerUnsafeAnswersOutcome(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse(buggySumSrc)
	if r.Safe(p) {
		t.Fatal("buggy program reported safe")
	}
	safe, repair := r.Outcome(p)
	if safe || repair {
		t.Fatalf("Outcome = (%v,%v), want (false,false)", safe, repair)
	}
	if r.Evals() != 1 || r.CacheHits() != 1 {
		t.Fatalf("evals = %d hits = %d, want 1 and 1", r.Evals(), r.CacheHits())
	}
}

// TestShardContentionCounter sanity-checks the contention observability:
// it only moves when cache-lock acquisitions collide.
func TestShardContentionCounter(t *testing.T) {
	r := NewRunner(sumSuite())
	r.Eval(context.Background(), lang.MustParse(sumSrc))
	if c := r.ShardContention(); c != 0 {
		t.Fatalf("sequential use contended %d times", c)
	}
}
