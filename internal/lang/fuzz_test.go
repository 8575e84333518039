package lang

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomProgram builds a structurally valid but semantically arbitrary
// program — the shape of thing mutation produces constantly. The
// interpreter must contain it: no panics, bounded steps, defined results.
func randomProgram(r *rng.RNG, stmts int) *Program {
	vars := []string{"a", "b", "c", "n"}
	labels := []string{"l0", "l1", "l2"}
	var randExpr func(depth int) Expr
	randExpr = func(depth int) Expr {
		if depth <= 0 || r.Bool(0.4) {
			if r.Bool(0.5) {
				return &NumLit{Value: int64(r.Intn(100)) - 50}
			}
			return &VarRef{Name: vars[r.Intn(len(vars))]}
		}
		ops := []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
		if r.Bool(0.15) {
			return &UnaryExpr{Op: []string{"-", "!"}[r.Intn(2)], X: randExpr(depth - 1)}
		}
		return &BinExpr{Op: ops[r.Intn(len(ops))], L: randExpr(depth - 1), R: randExpr(depth - 1)}
	}
	p := &Program{}
	for i := 0; i < stmts; i++ {
		switch r.Intn(8) {
		case 0:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtSet, Var: vars[r.Intn(len(vars))], Expr: randExpr(3)})
		case 1:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtPrint, Expr: randExpr(3)})
		case 2:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtIf, Expr: randExpr(2), Target: labels[r.Intn(len(labels))]})
		case 3:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtGoto, Target: labels[r.Intn(len(labels))]})
		case 4:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtLabel, Target: labels[r.Intn(len(labels))]})
		case 5:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtInput, Var: vars[r.Intn(len(vars))]})
		case 6:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtNop})
		case 7:
			p.Stmts = append(p.Stmts, &Stmt{Kind: StmtHalt})
		}
	}
	return p
}

// Property: the interpreter never panics on arbitrary programs, always
// terminates within the step budget, and its String form re-parses to an
// equivalent program.
func TestQuickRandomProgramsContained(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		r := rng.New(seed)
		p := randomProgram(r, int(sizeRaw)%40+1)
		res := Compile(p).Run(Options{Input: []int64{3, 7, 11}, MaxSteps: 2000})
		if res.Steps > 2000 {
			return false
		}
		// Canonical text must re-parse.
		p2, err := Parse(p.String())
		if err != nil {
			return false
		}
		// And behave identically.
		res2 := Compile(p2).Run(Options{Input: []int64{3, 7, 11}, MaxSteps: 2000})
		if len(res.Output) != len(res2.Output) || res.Steps != res2.Steps {
			return false
		}
		for i := range res.Output {
			if res.Output[i] != res2.Output[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// fuzzSeeds is the shared seed corpus of the native fuzz targets: a few
// hand-written programs plus the canonical text of generated ones, so the
// seed run under plain go test already covers randomProgram's shapes.
func fuzzSeeds() []string {
	seeds := []string{
		"",
		"halt\n",
		"input n\nset acc = 0\nlabel top\nif n <= 0 goto done\nset acc = acc + n\nset n = n - 1\ngoto top\nlabel done\nprint acc\nhalt\n",
		"set a = (-(3 * 4)) / (2 - 2)\nprint a\n",
		"label l\ngoto l\n",
		"print !(1 && 0 || 7 % 3 >= 1)\n",
	}
	for i := uint64(0); i < 32; i++ {
		seeds = append(seeds, randomProgram(rng.New(i), int(i%20)+1).String())
	}
	return seeds
}

// FuzzParseRoundTrip: the canonical text of any program the parser
// accepts re-parses to the same canonical text.
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := p.String()
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical text does not re-parse: %v\n%s", err, text)
		}
		if got := p2.String(); got != text {
			t.Fatalf("round trip changed the text:\n%s\n---\n%s", text, got)
		}
	})
}

// FuzzRunContained: the compiled engine contains any parsed program — no
// panic, at most MaxSteps statements, one coverage flag per statement
// with the entry statement covered once anything ran, a repeated run is
// identical, and the result equals the tree-walking oracle's.
func FuzzRunContained(f *testing.F) {
	for i, s := range fuzzSeeds() {
		f.Add(s, int64(i), int64(-i), uint16(100*i))
	}
	f.Fuzz(func(t *testing.T, src string, in1, in2 int64, budget uint16) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		opts := Options{Input: []int64{in1, in2}, MaxSteps: int(budget)%5000 + 1, Trace: true}
		res := Compile(p).Run(opts)
		if res.Steps > opts.MaxSteps {
			t.Fatalf("%d steps exceed the budget of %d", res.Steps, opts.MaxSteps)
		}
		if len(res.Coverage) != len(p.Stmts) {
			t.Fatalf("%d coverage flags for %d statements", len(res.Coverage), len(p.Stmts))
		}
		if res.Steps > 0 && !res.Coverage[0] {
			t.Fatal("entry statement ran but is not covered")
		}
		if again := Compile(p).Run(opts); !reflect.DeepEqual(res, again) {
			t.Fatalf("repeated run differs: %+v vs %+v", res, again)
		}
		if oracle := treeRun(p, opts); !reflect.DeepEqual(res, oracle) {
			t.Fatalf("compiled run differs from the oracle: %+v vs %+v", res, oracle)
		}
	})
}
