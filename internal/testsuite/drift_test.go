package testsuite

import (
	"context"
	"testing"

	"repro/internal/lang"
	"repro/internal/store"
)

// harderSumSuite is a drifted phase of sumSuite: one more positive test
// and the bug-inducing input moved from n=10 to n=7. The buggy program
// (sums 1..n-1) still fails it, the correct program still passes, but
// every verdict — and the suite fingerprint — differs from sumSuite.
func harderSumSuite() *Suite {
	s := sumSuite()
	s.Positive = append(s.Positive, Test{Name: "p4", Input: []int64{3}, Want: []int64{6}})
	s.Negative = []Test{{Name: "n1", Input: []int64{7}, Want: []int64{28}}}
	return s
}

// constSuite accepts only programs that print the constant 1. Used where
// a test needs a suite under which a given program's verdict flips.
func constSuite(want int64) *Suite {
	return &Suite{
		Positive: []Test{{Name: "c1", Input: []int64{1}, Want: []int64{want}}},
		Negative: []Test{{Name: "cn", Input: []int64{5}, Want: []int64{want}}},
	}
}

// The regression this package's drift support exists to prevent: the
// cache is keyed by program hash alone, so swapping the suite
// without purging would keep serving verdicts computed against the old
// tests. Before SetSuite existed there was no safe way to change a
// runner's suite; a naive `r.suite = s` (what pre-PR code would have had
// to do) fails exactly this test.
func TestSetSuitePurgesStaleVerdicts(t *testing.T) {
	r := NewRunner(sumSuite())
	p := lang.MustParse("input n\nprint 1\n") // prints 1 regardless of input

	// Under sumSuite: passes only p2 (n=1 -> 1). Not safe-equivalent to
	// a repair, but cached at full fitness.
	f1 := r.Eval(context.Background(), p)
	if f1.Repair() {
		t.Fatalf("const-1 program repairs sumSuite: %+v", f1)
	}
	if r.Evals() != 1 {
		t.Fatalf("evals = %d, want 1", r.Evals())
	}

	// Drift to a suite the same program fully passes. The cached verdict
	// is now stale; serving it would misreport the program as broken.
	if n := r.SetSuite(constSuite(1)); n != 0 {
		t.Fatalf("SetSuite without a store warm-started %d entries", n)
	}
	f2 := r.Eval(context.Background(), p)
	if !f2.Repair() {
		t.Fatalf("post-drift Eval served a stale verdict: %+v", f2)
	}
	if r.Evals() != 2 {
		t.Fatalf("evals = %d, want 2 (post-drift verdict must be recomputed)", r.Evals())
	}

	// Counters are cumulative across the swap and Lookups stays
	// consistent.
	r.Eval(context.Background(), p.Clone())
	if r.CacheHits() != 1 {
		t.Fatalf("cache hits = %d, want 1 (new-phase verdict is cacheable)", r.CacheHits())
	}
	if r.Lookups() != r.CacheHits()+r.Evals() {
		t.Fatal("Lookups != CacheHits + Evals across a drift step")
	}
}

// Safe-level entries are just as stale as fitness-level ones.
func TestSetSuitePurgesSafeVerdicts(t *testing.T) {
	r := NewRunner(sumSuite())
	crasher := lang.MustParse("input n\nprint 1 / n\n") // traps on the n=0 positive

	if r.Safe(crasher) {
		t.Fatal("1/n should trap on sumSuite's n=0 test")
	}
	r.SetSuite(constSuite(1)) // no zero inputs: 1/n runs clean (but wrong)
	if !r.Safe(crasher) {
		t.Fatal("post-drift Safe served a stale crash verdict")
	}
}

// With a store attached, SetSuite must re-fingerprint: verdicts recorded
// against the old suite key nothing for the new one, in either direction.
func TestSetSuiteStaleFingerprintNeverReused(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	phase1, phase2 := sumSuite(), harderSumSuite()
	if phase1.Fingerprint() == phase2.Fingerprint() {
		t.Fatal("drift phases share a fingerprint; test is vacuous")
	}
	good := lang.MustParse(sumSrc)
	buggy := lang.MustParse(buggySumSrc)

	// Run a drifting session: evaluate both programs in each phase.
	r1 := NewRunner(phase1)
	r1.AttachStore(st)
	r1.WarmStart()
	p1good := r1.Eval(context.Background(), good)
	p1bad := r1.Eval(context.Background(), buggy)
	if n := r1.SetSuite(phase2); n != 0 {
		t.Fatalf("first drift to phase2 warm-started %d entries; nothing was recorded for it yet", n)
	}
	p2good := r1.Eval(context.Background(), good)
	p2bad := r1.Eval(context.Background(), buggy)
	if r1.Evals() != 4 {
		t.Fatalf("evals = %d, want 4 (each phase pays its own verdicts)", r1.Evals())
	}
	if p1bad == p2bad {
		t.Fatalf("phase suites were built to give the buggy program different fitness; got %+v twice", p1bad)
	}

	// Both phases' records persisted under their own fingerprints.
	if got, ok := st.GetEval(ProgramKey(good), phase1.Fingerprint()); !ok || int(got.PosPassed) != p1good.PosPassed {
		t.Fatalf("phase1 record = %+v, %v", got, ok)
	}
	if got, ok := st.GetEval(ProgramKey(good), phase2.Fingerprint()); !ok || int(got.PosPassed) != p2good.PosPassed {
		t.Fatalf("phase2 record = %+v, %v", got, ok)
	}

	// A warm runner drifting through the same schedule reloads each
	// phase's own verdicts — and never the other phase's.
	r2 := NewRunner(phase1)
	r2.AttachStore(st)
	if n := r2.WarmStart(); n != 2 {
		t.Fatalf("phase1 WarmStart = %d, want 2", n)
	}
	if f := r2.Eval(context.Background(), buggy); f != p1bad {
		t.Fatalf("warm phase1 Eval = %+v, want %+v", f, p1bad)
	}
	if n := r2.SetSuite(phase2); n != 2 {
		t.Fatalf("drift WarmStart = %d, want 2 (phase2's own records)", n)
	}
	if f := r2.Eval(context.Background(), buggy); f != p2bad {
		t.Fatalf("warm post-drift Eval = %+v, want %+v (phase1's verdict would be %+v)", f, p2bad, p1bad)
	}
	if f := r2.Eval(context.Background(), good); f != p2good {
		t.Fatalf("warm post-drift Eval(good) = %+v, want %+v", f, p2good)
	}
	if r2.Evals() != 0 {
		t.Fatalf("warm drifting runner executed %d suite evaluations, want 0", r2.Evals())
	}
	if r2.WarmHits() < 3 {
		t.Fatalf("WarmHits = %d, want >= 3", r2.WarmHits())
	}
}

func TestDriftLenNilSafe(t *testing.T) {
	var d *Drift
	if d.Len() != 0 {
		t.Fatal("nil Drift Len != 0")
	}
	d = &Drift{Steps: []DriftStep{{AfterProbes: 10, Suite: sumSuite(), Kind: DriftTestsAdded}}}
	if d.Len() != 1 {
		t.Fatal("Len != 1")
	}
}
