package pool

import (
	"context"

	"bytes"
	"testing"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/testsuite"
)

// A program with redundancy: the logging-style prints of intermediate
// values are checked, but recomputation statements give safe-mutation
// headroom (e.g. "set t = a + b" twice).
const src = `input a
input b
set t = a + b
set t = a + b
set u = t * 2
set u = t * 2
print u
halt
nop
nop
`

func suite() *testsuite.Suite {
	return &testsuite.Suite{
		Positive: []testsuite.Test{
			{Name: "p1", Input: []int64{1, 2}, Want: []int64{6}},
			{Name: "p2", Input: []int64{0, 0}, Want: []int64{0}},
			{Name: "p3", Input: []int64{-3, 3}, Want: []int64{0}},
		},
	}
}

func TestPrecomputeFindsSafeMutations(t *testing.T) {
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 10, Workers: 4}, rng.New(1))
	if pl.Size() == 0 {
		t.Fatal("no safe mutations found in a redundant program")
	}
	// Every pool mutation must actually be safe.
	runner := testsuite.NewRunner(suite())
	for _, m := range pl.Mutations() {
		mutant := mutation.Apply(p, []mutation.Mutation{m})
		if !runner.Eval(context.Background(), mutant).Safe() {
			t.Fatalf("pool mutation %v is unsafe", m.ID())
		}
	}
}

func TestPrecomputeCapsGenerationAtTarget(t *testing.T) {
	// Target caps candidate generation, not retention: generation stops
	// once the pool reaches the target, so the pool holds at least Target
	// safe mutations (when attainable) and overshoots by at most the safe
	// members of the final 64-candidate batch.
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 5, Workers: 2}, rng.New(2))
	if pl.Size() < 5 {
		t.Fatalf("pool size %d below attainable target 5", pl.Size())
	}
	if pl.Size() >= 5+64 {
		t.Fatalf("pool size %d: generation not capped at target", pl.Size())
	}
}

func TestPrecomputeKeepsAllEvaluatedSafeCandidates(t *testing.T) {
	// Regression: the final batch used to be truncated at Target, throwing
	// away candidates whose (paid-for) safety evaluation succeeded and
	// undercounting Stats.Safe. With a suite that has no positive tests,
	// every candidate is trivially safe, so every evaluated candidate must
	// end up in the pool even though Target is far smaller than one batch.
	p := lang.MustParse(src)
	s := &testsuite.Suite{
		Negative: []testsuite.Test{{Name: "n1", Input: []int64{1, 2}, Want: []int64{99}}},
	}
	pl := Precompute(context.Background(), p, s, Config{Target: 3, Workers: 4}, rng.New(21))
	st := pl.Stats()
	if pl.Size() != st.Evaluated {
		t.Fatalf("pool size %d != evaluated %d: evaluated-safe candidates were dropped", pl.Size(), st.Evaluated)
	}
	if pl.Size() <= 3 {
		t.Fatalf("pool size %d: final batch overshoot was discarded", pl.Size())
	}
	if st.Safe != pl.Size() {
		t.Fatalf("stats.Safe %d != pool size %d", st.Safe, pl.Size())
	}
}

func TestPrecomputeDeterministicAcrossWorkerCounts(t *testing.T) {
	p := lang.MustParse(src)
	ids := func(workers int) []string {
		pl := Precompute(context.Background(), p, suite(), Config{Target: 8, Workers: workers}, rng.New(3))
		var out []string
		for _, m := range pl.Mutations() {
			out = append(out, m.ID())
		}
		return out
	}
	a, b := ids(1), ids(8)
	if len(a) != len(b) {
		t.Fatalf("pool sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool contents differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestPrecomputeStats(t *testing.T) {
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 10, Workers: 4}, rng.New(4))
	s := pl.Stats()
	if s.Attempts < s.Evaluated {
		t.Fatalf("attempts %d < evaluated %d", s.Attempts, s.Evaluated)
	}
	if s.Safe != pl.Size() {
		t.Fatalf("stats.Safe %d != size %d", s.Safe, pl.Size())
	}
	if r := s.SafeRate(); r <= 0 || r > 1 {
		t.Fatalf("safe rate %v", r)
	}
}

func TestPrecomputeAttemptBudget(t *testing.T) {
	// An unsatisfiable target must stop at the attempt cap
	// (attemptsPerTarget × Target), not spin forever.
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 1000, Workers: 2}, rng.New(5))
	if st := pl.Stats(); st.Attempts > attemptsPerTarget*1000 || pl.Size() >= 1000 {
		t.Fatalf("attempts %d (pool %d) exceeded budget", st.Attempts, pl.Size())
	}
}

func TestSampleDistinct(t *testing.T) {
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 10, Workers: 2}, rng.New(6))
	if pl.Size() < 3 {
		t.Skip("pool too small for this seed")
	}
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		muts := pl.Sample(3, r)
		ids := map[string]bool{}
		for _, m := range muts {
			ids[m.ID()] = true
		}
		if len(muts) != 3 || len(ids) != len(muts) {
			t.Fatalf("sample = %v", muts)
		}
	}
}

func TestSamplePanicsWhenTooLarge(t *testing.T) {
	pl := FromMutations(lang.MustParse(src), []mutation.Mutation{{Op: mutation.Delete, At: 8}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.Sample(2, rng.New(1))
}

func TestApplySample(t *testing.T) {
	p := lang.MustParse(src)
	pl := FromMutations(p, []mutation.Mutation{
		{Op: mutation.Delete, At: 8},
		{Op: mutation.Delete, At: 9},
	})
	mutant, muts := pl.ApplySample(2, rng.New(8))
	if len(muts) != 2 {
		t.Fatalf("muts = %v", muts)
	}
	if mutant.Len() != p.Len() {
		t.Fatal("delete-only sample changed length")
	}
	// Deleting the two trailing nops is behaviour-preserving.
	r := testsuite.NewRunner(suite())
	if !r.Eval(context.Background(), mutant).Safe() {
		t.Fatal("mutant should be safe")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := lang.MustParse(src)
	pl := Precompute(context.Background(), p, suite(), Config{Target: 6, Workers: 2}, rng.New(9))
	var buf bytes.Buffer
	if err := pl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != pl.Size() {
		t.Fatalf("size %d != %d", back.Size(), pl.Size())
	}
	for i := range pl.Mutations() {
		if back.mutations[i] != pl.mutations[i] {
			t.Fatalf("mutation %d differs", i)
		}
	}
	if back.Original().String() != p.String() {
		t.Fatal("program round trip failed")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(bytes.NewBufferString(`{"source":"set = bad\n","mutations":[]}`)); err == nil {
		t.Fatal("expected program parse error")
	}
	if _, err := Load(bytes.NewBufferString(`{"source":"halt\n","mutations":[{"op":0,"at":99}]}`)); err == nil {
		t.Fatal("expected mutation validation error")
	}
}

func TestRevalidateDropsNewlyUnsafe(t *testing.T) {
	p := lang.MustParse(src)
	// A pool with a mutation that is safe for the original suite but
	// breaks a stricter one: deleting stmt 5 ("set u = t * 2" recompute)
	// is safe; deleting stmt 4 AND 5 would not be, but single deletion of
	// statement 2 (first "set t") is safe only because stmt 3 recomputes.
	pl := FromMutations(p, []mutation.Mutation{
		{Op: mutation.Delete, At: 8},           // nop: always safe
		{Op: mutation.Replace, At: 6, From: 7}, // print -> halt: drops output
	})
	removed := pl.Revalidate(suite(), 2)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if pl.Size() != 1 || pl.mutations[0].ID() != "del@8" {
		t.Fatalf("pool after revalidate = %v", pl.Mutations())
	}
}

func TestFromMutationsValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromMutations(lang.MustParse("halt\n"), []mutation.Mutation{{Op: mutation.Delete, At: 5}})
}

func TestPrecomputePanicsWithoutCoverage(t *testing.T) {
	p := lang.MustParse("halt\nprint 1\n")
	empty := &testsuite.Suite{} // no tests -> no coverage
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Precompute(context.Background(), p, empty, Config{Target: 1}, rng.New(1))
}

// FromMutations builds a pool directly from a known-safe mutation list,
// skipping the suite-driven build the tests here do not exercise.
func FromMutations(p *lang.Program, muts []mutation.Mutation) *Pool {
	for _, m := range muts {
		if err := m.Validate(p.Len()); err != nil {
			panic(err)
		}
	}
	return &Pool{
		original:  p.Clone(),
		mutations: append([]mutation.Mutation(nil), muts...),
		stats:     Stats{Safe: len(muts), Evaluated: len(muts), Attempts: len(muts)},
	}
}
