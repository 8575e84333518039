package mutation

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/rng"
)

const src = `input n
set a = n + 1
set b = a * 2
print a
print b
halt
`

func prog() *lang.Program { return lang.MustParse(src) }

func TestDelete(t *testing.T) {
	p := prog()
	out := Apply(p, []Mutation{{Op: Delete, At: 3}})
	if out.Len() != p.Len() {
		t.Fatalf("delete changed length: %d", out.Len())
	}
	if out.Stmts[3].Kind != lang.StmtNop {
		t.Fatalf("stmt 3 = %v, want nop", out.Stmts[3])
	}
	// Original untouched.
	if p.Stmts[3].Kind != lang.StmtPrint {
		t.Fatal("original mutated")
	}
}

func TestReplace(t *testing.T) {
	out := Apply(prog(), []Mutation{{Op: Replace, At: 4, From: 3}})
	if out.Stmts[4].String() != "print a" {
		t.Fatalf("stmt 4 = %v", out.Stmts[4])
	}
}

func TestInsert(t *testing.T) {
	p := prog()
	out := Apply(p, []Mutation{{Op: Insert, At: 1, From: 3}})
	if out.Len() != p.Len()+1 {
		t.Fatalf("length = %d", out.Len())
	}
	if out.Stmts[2].String() != "print a" {
		t.Fatalf("inserted stmt = %v", out.Stmts[2])
	}
	// Following statements shifted down intact.
	if out.Stmts[3].String() != p.Stmts[2].String() {
		t.Fatal("shift corrupted program")
	}
}

func TestSwap(t *testing.T) {
	p := prog()
	out := Apply(p, []Mutation{{Op: Swap, At: 3, From: 4}})
	if out.Stmts[3].String() != "print b" || out.Stmts[4].String() != "print a" {
		t.Fatalf("swap wrong: %v / %v", out.Stmts[3], out.Stmts[4])
	}
}

func TestMultipleInsertsComposeInOriginalCoordinates(t *testing.T) {
	p := prog()
	// Insert after 1 and after 3; both positions refer to the original.
	out := Apply(p, []Mutation{
		{Op: Insert, At: 1, From: 5}, // halt copy after stmt 1? no — From 5 is halt; use print
		{Op: Insert, At: 3, From: 4},
	})
	if out.Len() != p.Len()+2 {
		t.Fatalf("length = %d", out.Len())
	}
	// The insert at 3 must land after original stmt 3 even though an
	// earlier insert shifted indices.
	if out.Stmts[2].String() != "halt" {
		t.Fatalf("first insert = %v", out.Stmts[2])
	}
	if out.Stmts[5].String() != "print b" {
		t.Fatalf("second insert = %v (program:\n%s)", out.Stmts[5], out)
	}
}

func TestDeleteThenInsertSameTarget(t *testing.T) {
	out := Apply(prog(), []Mutation{
		{Op: Delete, At: 2},
		{Op: Insert, At: 2, From: 1},
	})
	if out.Stmts[2].Kind != lang.StmtNop {
		t.Fatalf("stmt 2 = %v", out.Stmts[2])
	}
	if out.Stmts[3].String() != "set a = (n + 1)" {
		t.Fatalf("stmt 3 = %v", out.Stmts[3])
	}
}

func TestApplyEmpty(t *testing.T) {
	p := prog()
	out := Apply(p, nil)
	if out.String() != p.String() {
		t.Fatal("empty mutation list changed program")
	}
}

func TestApplyPanicsOnInvalid(t *testing.T) {
	for _, m := range []Mutation{
		{Op: Delete, At: -1},
		{Op: Delete, At: 99},
		{Op: Replace, At: 0, From: 99},
		{Op: Op(42), At: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Apply(%v) should panic", m)
				}
			}()
			Apply(prog(), []Mutation{m})
		}()
	}
}

func TestBehaviouralEffect(t *testing.T) {
	// Deleting the print b statement removes the second output.
	p := prog()
	out := Apply(p, []Mutation{{Op: Delete, At: 4}})
	r := lang.Compile(out).Run(lang.Options{Input: []int64{10}})
	if r.Err != nil || len(r.Output) != 1 || r.Output[0] != 11 {
		t.Fatalf("output = %v err = %v", r.Output, r.Err)
	}
}

func TestIDStability(t *testing.T) {
	cases := map[Mutation]string{
		{Op: Delete, At: 3}:           "del@3",
		{Op: Replace, At: 3, From: 7}: "rep@3<-7",
		{Op: Insert, At: 3, From: 7}:  "ins@3<-7",
		{Op: Swap, At: 7, From: 3}:    "swap@3<->7",
		{Op: Swap, At: 3, From: 7}:    "swap@3<->7", // symmetric
	}
	for m, want := range cases {
		if got := m.ID(); got != want {
			t.Fatalf("ID(%+v) = %q, want %q", m, got, want)
		}
	}
}

func TestRandomMutationTargetsCoveredOnly(t *testing.T) {
	p := prog()
	covered := []int{1, 3}
	r := rng.New(1)
	for i := 0; i < 500; i++ {
		m := Random(p, covered, r)
		if m.At != 1 && m.At != 3 {
			t.Fatalf("target %d not in covered set", m.At)
		}
		if err := m.Validate(p.Len()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomPanicsOnEmptyCoverage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Random(prog(), nil, rng.New(1))
}

func TestRandomProducesAllOps(t *testing.T) {
	p := prog()
	covered := []int{0, 1, 2, 3, 4, 5}
	r := rng.New(2)
	seen := map[Op]bool{}
	for i := 0; i < 200; i++ {
		seen[Random(p, covered, r).Op] = true
	}
	for _, op := range Ops {
		if !seen[op] {
			t.Fatalf("op %v never generated", op)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := Mutation{Op: Insert, At: 3, From: 7}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Mutation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip: %+v", back)
	}
}

// Property: Apply never panics for valid random mutation sets, and the
// result is structurally valid (parses back from its own rendering).
func TestQuickApplyWellFormed(t *testing.T) {
	p := prog()
	covered := make([]int, p.Len())
	for i := range covered {
		covered[i] = i
	}
	f := func(seed uint64, countRaw uint8) bool {
		r := rng.New(seed)
		count := int(countRaw) % 20
		muts := make([]Mutation, count)
		for i := range muts {
			muts[i] = Random(p, covered, r)
		}
		out := Apply(p, muts)
		if _, err := lang.Parse(out.String()); err != nil {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: applying the same mutation set twice yields identical mutants.
func TestQuickApplyDeterministic(t *testing.T) {
	p := prog()
	covered := []int{0, 1, 2, 3, 4, 5}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		muts := []Mutation{Random(p, covered, r), Random(p, covered, r), Random(p, covered, r)}
		return Apply(p, muts).String() == Apply(p, muts).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Mutants share the original's statements, so neither building a mutant
// nor running it may write to one: over random patches, the original's
// text, its statement pointers and the field values a deep Clone captured
// beforehand all stay as they were.
func TestApplyLeavesSharedStatementsUntouched(t *testing.T) {
	p := lang.MustParse(`input n
set i = 0
set acc = 1
label loop
if !(i < n) goto done
set acc = (acc * 3 + -i) % 65521
set i = i + 1
goto loop
label done
print acc
halt
`)
	text, ptrs, fields := p.String(), slices.Clone(p.Stmts), p.Clone()
	covered := make([]int, p.Len())
	for i := range covered {
		covered[i] = i
	}
	r := rng.New(9)
	for trial := 0; trial < 300; trial++ {
		muts := make([]Mutation, 1+r.Intn(8))
		for i := range muts {
			muts[i] = Random(p, covered, r)
		}
		lang.Compile(Apply(p, muts)).Run(lang.Options{Input: []int64{int64(r.Intn(20))}, MaxSteps: 2000, Trace: true})
	}
	if p.String() != text {
		t.Fatalf("original text changed:\n%s", p)
	}
	for i, s := range p.Stmts {
		if s != ptrs[i] {
			t.Fatalf("statement %d pointer replaced", i)
		}
		if !reflect.DeepEqual(s, fields.Stmts[i]) {
			t.Fatalf("statement %d fields changed: %#v, want %#v", i, s, fields.Stmts[i])
		}
	}
}

func TestManyInsertsLinearComposition(t *testing.T) {
	// Large compositions must stay cheap and correct: all inserts land
	// after their original targets, in a single rebuild pass.
	p := prog()
	var muts []Mutation
	for i := 0; i < 500; i++ {
		muts = append(muts, Mutation{Op: Insert, At: i % p.Len(), From: (i * 3) % p.Len()})
	}
	out := Apply(p, muts)
	if out.Len() != p.Len()+500 {
		t.Fatalf("length = %d", out.Len())
	}
	// Original statements appear in order as a subsequence.
	j := 0
	for _, s := range out.Stmts {
		if j < p.Len() && s.String() == p.Stmts[j].String() {
			j++
		}
	}
	if j != p.Len() {
		t.Fatalf("original statement order broken: matched %d/%d", j, p.Len())
	}
}

func TestSameTargetInsertsReverseOrder(t *testing.T) {
	// Two inserts at the same target land in reverse mutation order,
	// matching the insert-at-position-At+1 semantics.
	p := prog()
	out := Apply(p, []Mutation{
		{Op: Insert, At: 0, From: 3}, // print a
		{Op: Insert, At: 0, From: 4}, // print b
	})
	if out.Stmts[1].String() != "print b" || out.Stmts[2].String() != "print a" {
		t.Fatalf("same-target order: %v / %v", out.Stmts[1], out.Stmts[2])
	}
}

func BenchmarkApplyLargeComposition(b *testing.B) {
	// The hot path of high-x probes: hundreds of mutations on a
	// hundreds-of-statements program.
	src := ""
	for i := 0; i < 400; i++ {
		src += "set x = x + 1\n"
	}
	p := lang.MustParse(src)
	r := rng.New(1)
	covered := make([]int, p.Len())
	for i := range covered {
		covered[i] = i
	}
	muts := make([]Mutation, 1000)
	for i := range muts {
		muts[i] = Random(p, covered, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Apply(p, muts)
	}
}

// mapApply is Apply as it composed inserts before the sorted slice: the
// insertions grouped per target in a map. It is the reference the
// property test below holds Apply to.
func mapApply(original *lang.Program, muts []Mutation) *lang.Program {
	out := &lang.Program{Stmts: slices.Clone(original.Stmts)}
	var inserts []Mutation
	for _, m := range muts {
		switch m.Op {
		case Delete:
			out.Stmts[m.At] = nop
		case Replace:
			out.Stmts[m.At] = original.Stmts[m.From]
		case Swap:
			out.Stmts[m.At], out.Stmts[m.From] = out.Stmts[m.From], out.Stmts[m.At]
		case Insert:
			inserts = append(inserts, m)
		}
	}
	if len(inserts) == 0 {
		return out
	}
	insertsAt := make(map[int][]*lang.Stmt, len(inserts))
	for i := len(inserts) - 1; i >= 0; i-- {
		m := inserts[i]
		insertsAt[m.At] = append(insertsAt[m.At], original.Stmts[m.From])
	}
	rebuilt := make([]*lang.Stmt, 0, len(out.Stmts)+len(inserts))
	for i, s := range out.Stmts {
		rebuilt = append(rebuilt, s)
		rebuilt = append(rebuilt, insertsAt[i]...)
	}
	out.Stmts = rebuilt
	return out
}

// Property: Apply yields the same statement pointers, in the same order,
// as the map version, over random patches whose inserts repeat targets.
func TestQuickApplyMatchesMapVersion(t *testing.T) {
	var lines string
	for i := 0; i < 12; i++ {
		lines += "print " + string(rune('a'+i)) + "\n"
	}
	p := lang.MustParse(lines)
	f := func(seed uint64, k uint8) bool {
		r := rng.New(seed)
		muts := make([]Mutation, int(k)%40)
		for i := range muts {
			// Few targets, so inserts pile up on the same ones.
			muts[i] = Mutation{Op: Ops[r.Intn(len(Ops))], At: r.Intn(4), From: r.Intn(p.Len())}
			if r.Bool(0.5) {
				muts[i].Op = Insert
			}
		}
		return slices.Equal(Apply(p, muts).Stmts, mapApply(p, muts).Stmts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
