package testsuite

import (
	"context"

	"sync"
	"testing"

	"repro/internal/lang"
)

// sumProgram computes sum of 1..n; defective variant off by one.
const sumSrc = `input n
set acc = 0
set i = 1
label loop
if i > n goto done
set acc = acc + i
set i = i + 1
goto loop
label done
print acc
`

const buggySumSrc = `input n
set acc = 0
set i = 1
label loop
if i >= n goto done
set acc = acc + i
set i = i + 1
goto loop
label done
print acc
`

func sumSuite() *Suite {
	return &Suite{
		Positive: []Test{
			{Name: "p1", Input: []int64{0}, Want: []int64{0}},
			{Name: "p2", Input: []int64{1}, Want: []int64{1}},
			{Name: "p3", Input: []int64{5}, Want: []int64{15}},
		},
		Negative: []Test{
			{Name: "n1", Input: []int64{10}, Want: []int64{55}},
		},
	}
}

func TestRunTestPassAndFail(t *testing.T) {
	p := lang.MustParse(sumSrc)
	if !RunTest(lang.Compile(p), Test{Input: []int64{4}, Want: []int64{10}}) {
		t.Fatal("correct program failed correct test")
	}
	if RunTest(lang.Compile(p), Test{Input: []int64{4}, Want: []int64{11}}) {
		t.Fatal("wrong expectation passed")
	}
	if RunTest(lang.Compile(p), Test{Input: []int64{4}, Want: []int64{10, 10}}) {
		t.Fatal("output length mismatch passed")
	}
}

func TestRunTestRuntimeErrorFails(t *testing.T) {
	p := lang.MustParse("input n\nprint 1 / n\n")
	if RunTest(lang.Compile(p), Test{Input: []int64{0}, Want: []int64{0}}) {
		t.Fatal("runtime error should fail the test")
	}
}

func TestFitnessOnCorrectAndBuggy(t *testing.T) {
	s := sumSuite()
	r := NewRunner(s)

	good := r.Eval(context.Background(), lang.MustParse(sumSrc))
	if !good.Repair() || !good.Safe() {
		t.Fatalf("correct program fitness = %v", good)
	}
	if passed := good.PosPassed + good.NegPassed; passed != 4 {
		t.Fatalf("passed = %d", passed)
	}

	bad := r.Eval(context.Background(), lang.MustParse(buggySumSrc))
	// Buggy variant: sums 1..n-1. n=0 -> 0 ok; n=1 -> 0 (want 1, fail);
	// n=5 -> 10 (want 15, fail); n=10 -> 45 (want 55, fail).
	if bad.Repair() || bad.Safe() {
		t.Fatalf("buggy program fitness = %v", bad)
	}
	if bad.PosPassed != 1 || bad.NegPassed != 0 {
		t.Fatalf("buggy fitness = %v", bad)
	}
}

func TestWeightedFitness(t *testing.T) {
	f := Fitness{PosPassed: 3, NegPassed: 1, PosTotal: 3, NegTotal: 1}
	if got := f.Weighted(10); got != 13 {
		t.Fatalf("weighted = %v", got)
	}
}

func TestRunnerCacheDeduplicates(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse(sumSrc)
	r.Eval(context.Background(), p)
	r.Eval(context.Background(), p.Clone()) // structurally identical program
	if r.Evals() != 1 {
		t.Fatalf("evals = %d, want 1 (second was a cache hit)", r.Evals())
	}
	if r.CacheHits() != 1 {
		t.Fatalf("cache hits = %d", r.CacheHits())
	}
}

func TestRunnerCacheDistinguishesPrograms(t *testing.T) {
	r := NewRunner(sumSuite())
	r.Eval(context.Background(), lang.MustParse(sumSrc))
	r.Eval(context.Background(), lang.MustParse(buggySumSrc))
	if r.Evals() != 2 {
		t.Fatalf("evals = %d, want 2", r.Evals())
	}
}

func TestEvalNoCacheAlwaysExecutes(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse(sumSrc)
	r.EvalNoCache(p)
	r.EvalNoCache(p)
	if r.Evals() != 2 {
		t.Fatalf("evals = %d", r.Evals())
	}
}

func TestRunnerConcurrent(t *testing.T) {
	r := NewRunner(sumSuite())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := r.Eval(context.Background(), lang.MustParse(sumSrc))
				if !f.Repair() {
					t.Error("wrong fitness under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Evals() < 1 {
		t.Fatal("no evals recorded")
	}
	if r.Evals()+r.CacheHits() != 16*50 {
		t.Fatalf("evals %d + hits %d != 800", r.Evals(), r.CacheHits())
	}
}

func TestCoverage(t *testing.T) {
	src := `input n
if n > 0 goto pos
print -1
halt
label pos
print 1
`
	p := lang.MustParse(src)
	// Suite only exercises the positive branch.
	s := &Suite{Positive: []Test{{Input: []int64{3}, Want: []int64{1}}}}
	cov := Coverage(p, s)
	want := []bool{true, true, false, false, true, true}
	for i := range want {
		if cov[i] != want[i] {
			t.Fatalf("coverage = %v", cov)
		}
	}
	idx := CoveredIndices(p, s)
	if len(idx) != 4 || idx[0] != 0 || idx[3] != 5 {
		t.Fatalf("covered indices = %v", idx)
	}
}

func TestCoverageUnion(t *testing.T) {
	src := `input n
if n > 0 goto pos
print -1
halt
label pos
print 1
`
	p := lang.MustParse(src)
	s := &Suite{
		Positive: []Test{{Input: []int64{3}, Want: []int64{1}}},
		Negative: []Test{{Input: []int64{-3}, Want: []int64{99}}},
	}
	cov := Coverage(p, s)
	// Both branches now covered (negative test runs the -1 branch even
	// though it fails).
	for i, c := range cov {
		if !c {
			t.Fatalf("statement %d uncovered: %v", i, cov)
		}
	}
}

func TestSuiteAllAndSize(t *testing.T) {
	s := sumSuite()
	if size := len(s.Positive) + len(s.Negative); size != 4 || len(s.All()) != 4 {
		t.Fatalf("size = %d, all = %d", size, len(s.All()))
	}
	if s.All()[3].Name != "n1" {
		t.Fatal("negative tests must come last")
	}
}

func TestFitnessString(t *testing.T) {
	f := Fitness{PosPassed: 2, PosTotal: 3, NegPassed: 0, NegTotal: 1}
	if got := f.String(); got != "2/3 pos, 0/1 neg" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRunnerSafeShortCircuit(t *testing.T) {
	r := NewRunner(sumSuite())
	if !r.Safe(lang.MustParse(sumSrc)) {
		t.Fatal("correct program reported unsafe")
	}
	if r.Safe(lang.MustParse(buggySumSrc)) {
		t.Fatal("buggy program reported safe")
	}
	if r.Evals() != 2 {
		t.Fatalf("evals = %d", r.Evals())
	}
	// Re-checks hit the safe cache.
	r.Safe(lang.MustParse(sumSrc))
	if r.Evals() != 2 || r.CacheHits() != 1 {
		t.Fatalf("evals = %d hits = %d", r.Evals(), r.CacheHits())
	}
}

func TestRunnerSafeReusesFitnessCache(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse(sumSrc)
	r.Eval(context.Background(), p)
	if !r.Safe(p) {
		t.Fatal("Safe disagrees with Eval")
	}
	if r.Evals() != 1 || r.CacheHits() != 1 {
		t.Fatalf("evals = %d hits = %d", r.Evals(), r.CacheHits())
	}
}

func TestTestMaxStepsEnforced(t *testing.T) {
	// A test with a tight step budget fails a program that loops.
	loop := lang.MustParse("label spin\ngoto spin\n")
	tc := Test{Input: nil, Want: nil, MaxSteps: 100}
	if RunTest(lang.Compile(loop), tc) {
		t.Fatal("looping program passed")
	}
}

func TestOutcomeMatchesEval(t *testing.T) {
	rA := NewRunner(sumSuite())
	rB := NewRunner(sumSuite())
	for _, src := range []string{sumSrc, buggySumSrc} {
		p := lang.MustParse(src)
		f := rA.Eval(context.Background(), p)
		safe, repair := rB.Outcome(p)
		if safe != f.Safe() || repair != f.Repair() {
			t.Fatalf("outcome (%v,%v) disagrees with fitness %v", safe, repair, f)
		}
	}
}

func TestOutcomeCachesAndCounts(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse(sumSrc)
	r.Outcome(p)
	r.Outcome(p.Clone())
	if r.Evals() != 1 || r.CacheHits() != 1 {
		t.Fatalf("evals=%d hits=%d", r.Evals(), r.CacheHits())
	}
	// A prior full Eval answers Outcome without re-running.
	r2 := NewRunner(sumSuite())
	r2.Eval(context.Background(), p)
	r2.Outcome(p)
	if r2.Evals() != 1 || r2.CacheHits() != 1 {
		t.Fatalf("evals=%d hits=%d", r2.Evals(), r2.CacheHits())
	}
}

// TestOutcomeCompilesOnlyTheFirstMutant guards the runner's statement
// memo. Once one mutant of a base program has run, another mutant of the
// same base allocates its cache entry, its jump table and one run state
// per test, and no statement code: compiling each mutant from scratch
// would allocate per statement and cost about as much as the runs.
func TestOutcomeCompilesOnlyTheFirstMutant(t *testing.T) {
	base := lang.MustParse(sumSrc)
	suite := sumSuite()
	// Mutants share the base's statements, as mutation.Apply builds them:
	// statement j inserted again before statement i, each program once.
	var mutants []*lang.Program
	seen := map[uint64]bool{}
	for i := 0; i <= base.Len(); i++ {
		for j := 0; j < base.Len(); j++ {
			stmts := append(append(append([]*lang.Stmt(nil), base.Stmts[:i]...), base.Stmts[j]), base.Stmts[i:]...)
			m := &lang.Program{Stmts: stmts}
			if k := programKey(m); !seen[k] {
				seen[k] = true
				mutants = append(mutants, m)
			}
		}
	}
	r := NewRunner(suite)
	r.Outcome(base)
	next := 0
	allocs := testing.AllocsPerRun(len(mutants)-1, func() {
		r.Outcome(mutants[next])
		next++
	})
	// Cache entry and its in-flight channel, the Code and its jump table,
	// one run state per test, and the entry map's amortized growth.
	const bookkeeping, link, growth = 2, 2, 1
	if limit := float64(bookkeeping + link + len(suite.All()) + growth); allocs > limit {
		t.Fatalf("Outcome on a further mutant allocates %v times, want at most %v: is each mutant compiled from scratch?", allocs, limit)
	}
	t.Logf("%v allocations per further mutant", allocs)
}
