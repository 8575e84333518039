package testsuite_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// The structural key must define the same equivalence as the rendered
// text: over random mutants of several registry rows, two programs share
// a key exactly when they share a String(). Mutations are drawn from a
// few targets and sources so that equal mutants (repeated mutations,
// symmetric swaps, identity replacements) are frequent, not just
// distinct ones.
func TestProgramKeyMatchesTextEquivalence(t *testing.T) {
	keyOf := map[string]uint64{}
	textOf := map[uint64]string{}
	mutants := 0
	for _, name := range []string{"units", "lighttpd-1806-1807", "Math80", "mh-pair"} {
		sc := scenario.Generate(scenario.MustByName(name))
		p := sc.Program
		r := rng.New(uint64(len(name)))
		targets := []int{0, 1, 2, p.Len() / 2, p.Len() - 1}
		for _, x := range []int{1, 2, 4, 8} {
			for i := 0; i < 200; i++ {
				muts := make([]mutation.Mutation, x)
				for j := range muts {
					muts[j] = mutation.Mutation{
						Op:   mutation.Ops[r.Intn(len(mutation.Ops))],
						At:   targets[r.Intn(len(targets))],
						From: targets[r.Intn(len(targets))],
					}
				}
				q := mutation.Apply(p, muts)
				text, key := q.String(), testsuite.ProgramKey(q)
				mutants++
				if k, ok := keyOf[text]; ok && k != key {
					t.Fatalf("%s x=%d: one text, keys %#x and %#x:\n%s", name, x, k, key, text)
				}
				if s, ok := textOf[key]; ok && s != text {
					t.Fatalf("%s x=%d: key %#x shared by different texts:\n%s\n---\n%s", name, x, key, s, text)
				}
				keyOf[text], textOf[key] = key, text
			}
		}
	}
	if len(keyOf) == mutants || len(keyOf) < mutants/10 {
		t.Fatalf("%d distinct texts in %d mutants: the draw must mix equal and distinct programs", len(keyOf), mutants)
	}
}

// Random mutants only move whole statements around, so they rarely put
// two statements that differ in one field side by side. Perturb each
// statement of a program one field or one expression node at a time, and
// set fields its kind does not render: the key must change exactly when
// String() does.
func TestProgramKeyTracksEveryRenderedField(t *testing.T) {
	for _, p := range []*lang.Program{
		lang.MustParse(pinnedSrc),
		scenario.Generate(scenario.MustByName("Math80")).Program,
	} {
		text, key := p.String(), testsuite.ProgramKey(p)
		for i := range p.Stmts {
			edits := []func(*lang.Stmt){
				func(s *lang.Stmt) { s.Var += "z" },
				func(s *lang.Stmt) { s.Target += "z" },
				func(s *lang.Stmt) { s.Kind = lang.StmtNop },
				func(s *lang.Stmt) { s.Expr = &lang.NumLit{Value: 1} },
			}
			for _, e := range exprVariants(p.Stmts[i].Expr) {
				edits = append(edits, func(s *lang.Stmt) { s.Expr = e })
			}
			for _, edit := range edits {
				q := p.Clone()
				edit(q.Stmts[i])
				sameText, sameKey := q.String() == text, testsuite.ProgramKey(q) == key
				if sameText != sameKey {
					t.Fatalf("statement %d %q edited to %q: same text %v, same key %v",
						i, p.Stmts[i], q.Stmts[i], sameText, sameKey)
				}
			}
		}
	}
}

// exprVariants returns copies of e that each differ from it in one node.
func exprVariants(e lang.Expr) []lang.Expr {
	switch e := e.(type) {
	case *lang.NumLit:
		return []lang.Expr{&lang.NumLit{Value: e.Value + 1}, &lang.NumLit{Value: e.Value + 256}}
	case *lang.VarRef:
		return []lang.Expr{&lang.VarRef{Name: e.Name + "z"}}
	case *lang.UnaryExpr:
		out := []lang.Expr{&lang.UnaryExpr{Op: map[string]string{"-": "!", "!": "-"}[e.Op], X: e.X}}
		for _, x := range exprVariants(e.X) {
			out = append(out, &lang.UnaryExpr{Op: e.Op, X: x})
		}
		return out
	case *lang.BinExpr:
		op := "+"
		if e.Op == "+" {
			op = "-"
		}
		out := []lang.Expr{&lang.BinExpr{Op: op, L: e.L, R: e.R}, &lang.BinExpr{Op: e.Op, L: e.R, R: e.L}}
		for _, l := range exprVariants(e.L) {
			out = append(out, &lang.BinExpr{Op: e.Op, L: l, R: e.R})
		}
		for _, r := range exprVariants(e.R) {
			out = append(out, &lang.BinExpr{Op: e.Op, L: e.L, R: r})
		}
		return out
	}
	return nil
}

const pinnedSrc = `input n
set a = -(n + 1) * 3
if !(a < 0) goto done
print a
label done
nop
halt
`

// Store records persist the key, so it must not depend on the process,
// the platform or the hash seed: the key of a fixed program is pinned.
func TestProgramKeyPinned(t *testing.T) {
	p := lang.MustParse(pinnedSrc)
	const want = 0x12e7fafa42951512
	if got := testsuite.ProgramKey(p); got != want {
		t.Fatalf("ProgramKey = %#x, want %#x", got, want)
	}
}

func TestProgramKeyAllocatesNothing(t *testing.T) {
	p := scenario.Generate(scenario.MustByName("lighttpd-1806-1807")).Program
	if n := testing.AllocsPerRun(100, func() { testsuite.ProgramKey(p) }); n != 0 {
		t.Fatalf("ProgramKey allocates %v times per call", n)
	}
}

// textKey and untaggedFingerprint are the previous key scheme: FNV-64a of
// each statement's text plus a newline, under a suite fingerprint that
// carried no key-scheme tag. They are kept here as the reference for what
// stores written before the structural key hold.
func textKey(p *lang.Program) uint64 {
	h := fnv.New64a()
	for _, s := range p.Stmts {
		h.Write([]byte(s.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func untaggedFingerprint(s *testsuite.Suite) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	section := func(label byte, tests []testsuite.Test) {
		h.Write([]byte{label})
		w64(int64(len(tests)))
		for _, tc := range tests {
			h.Write([]byte(tc.Name))
			h.Write([]byte{0})
			w64(int64(len(tc.Input)))
			for _, v := range tc.Input {
				w64(v)
			}
			w64(int64(len(tc.Want)))
			for _, v := range tc.Want {
				w64(v)
			}
			w64(int64(tc.MaxSteps))
		}
	}
	section('P', s.Positive)
	section('N', s.Negative)
	return h.Sum64()
}

// A store written under the text key scheme must warm-start nothing: its
// eval records sit under fingerprints the tagged scheme never produces.
// The same record under the current scheme warms, which shows the record
// itself is usable.
func TestOldKeySchemeStoreWarmsNothing(t *testing.T) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	p, suite := sc.Program, sc.Suite
	write := func(dir string, key func(*lang.Program) uint64, fp func(*testsuite.Suite) uint64) {
		st, err := store.Open(store.Options{Dir: dir, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		st.PutEval(store.EvalRecord{Prog: key(p), Suite: fp(suite), Level: store.LevelSafe, Safe: true})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	warm := func(dir string) int {
		st, err := store.Open(store.Options{Dir: dir, FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r := testsuite.NewRunner(suite)
		r.AttachStore(st)
		return r.WarmStart()
	}

	old := t.TempDir()
	write(old, textKey, untaggedFingerprint)
	if n := warm(old); n != 0 {
		t.Fatalf("old-scheme store: WarmStart loaded %d entries, want 0", n)
	}
	cur := t.TempDir()
	write(cur, testsuite.ProgramKey, (*testsuite.Suite).Fingerprint)
	if n := warm(cur); n != 1 {
		t.Fatalf("current-scheme store: WarmStart loaded %d entries, want 1", n)
	}
}
