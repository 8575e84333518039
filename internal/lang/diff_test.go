package lang

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

// withEdgeCases replaces some statements of p with ones the parser never
// produces but a hand-built program can hold: nil expressions, operators
// the language does not define, a statement kind out of range, and jumps
// to a label no statement declares. The rest of p is kept as it is.
func withEdgeCases(r *rng.RNG, p *Program) *Program {
	out := &Program{Stmts: append([]*Stmt(nil), p.Stmts...)}
	for i := range out.Stmts {
		if !r.Bool(0.1) {
			continue
		}
		switch r.Intn(6) {
		case 0:
			out.Stmts[i] = &Stmt{Kind: []StmtKind{StmtSet, StmtPrint, StmtIf}[r.Intn(3)], Var: "a", Target: "l0"}
		case 1:
			out.Stmts[i] = &Stmt{Kind: StmtPrint, Expr: &BinExpr{Op: "?", L: &VarRef{Name: "a"}, R: &NumLit{Value: 1}}}
		case 2:
			out.Stmts[i] = &Stmt{Kind: StmtSet, Var: "b", Expr: &UnaryExpr{Op: "~", X: &VarRef{Name: "c"}}}
		case 3:
			// The bad operator sits under a short circuit, so it fails
			// only when the left operand does not decide the result.
			out.Stmts[i] = &Stmt{Kind: StmtIf, Target: "l1", Expr: &BinExpr{Op: "&&", L: &VarRef{Name: "n"},
				R: &BinExpr{Op: "<>", L: &NumLit{Value: 2}, R: &BinExpr{Op: "/", L: &NumLit{Value: 1}, R: &VarRef{Name: "a"}}}}}
		case 4:
			out.Stmts[i] = &Stmt{Kind: StmtKind(42)}
		case 5:
			out.Stmts[i] = &Stmt{Kind: []StmtKind{StmtIf, StmtGoto}[r.Intn(2)], Expr: &VarRef{Name: "b"}, Target: "nowhere"}
		}
	}
	return out
}

// shuffled rearranges p's statements the way mutation does: the same
// *Stmt values, some repeated, some dropped, in another order.
func shuffled(r *rng.RNG, p *Program) *Program {
	out := &Program{}
	for range p.Stmts {
		out.Stmts = append(out.Stmts, p.Stmts[r.Intn(len(p.Stmts))])
	}
	return out
}

// TestCompiledMatchesTreeWalker: on random programs, compiled with a
// Compiler of their own and with one Compiler shared across every seed
// and across each program's reshuffled mutant, Code.Run returns exactly
// what the tree-walking oracle returns — output, steps, coverage and the
// runtime error with its reason and PC — with tracing on and off; and
// Passes agrees with the oracle's verdict.
func TestCompiledMatchesTreeWalker(t *testing.T) {
	seeds := 20000
	if testing.Short() {
		seeds = 2000
	}
	var shared Compiler
	for seed := 0; seed < seeds; seed++ {
		r := rng.New(uint64(seed))
		p := randomProgram(r, r.Intn(40)+1)
		if seed%2 == 1 {
			p = withEdgeCases(r, p)
		}
		inputs := []int64{3, -7, 0, 11}[:r.Intn(5)]
		maxSteps := []int{1, 50, 2000}[r.Intn(3)]
		for _, q := range []*Program{p, shuffled(r, p)} {
			for _, code := range []*Code{Compile(q), shared.Compile(q)} {
				for _, trace := range []bool{false, true} {
					opts := Options{Input: inputs, MaxSteps: maxSteps, Trace: trace}
					want := treeRun(q, opts)
					if got := code.Run(opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d trace %v:\n%s\ncompiled %+v\noracle   %+v", seed, trace, q, got, want)
					}
					if got := code.Passes(inputs, want.Output, maxSteps); got != (want.Err == nil) {
						t.Fatalf("seed %d: Passes(oracle output) = %v with oracle error %v\n%s", seed, got, want.Err, q)
					}
					if len(want.Output) > 0 {
						bad := append([]int64(nil), want.Output...)
						bad[len(bad)-1]++
						if code.Passes(inputs, bad, maxSteps) || code.Passes(inputs, want.Output[:len(bad)-1], maxSteps) {
							t.Fatalf("seed %d: Passes accepts an output the run does not print\n%s", seed, q)
						}
					}
				}
			}
		}
	}
}

// TestCompiledRuntimeErrors pins each runtime error the compiled engine
// reports to the oracle's, case by case.
func TestCompiledRuntimeErrors(t *testing.T) {
	cases := map[string]*Program{
		"division by zero":   MustParse("nop\nprint 1 / 0\n"),
		"modulo by zero":     MustParse("input x\nset y = 5 % x\n"),
		"missing label":      MustParse("if 1 goto nowhere\n"),
		"untaken missing":    MustParse("if 0 goto nowhere\nprint 2\n"),
		"duplicate label":    MustParse("goto a\nlabel a\nprint 1\nlabel a\nprint 2\n"),
		"step limit":         MustParse("label spin\ngoto spin\n"),
		"input underrun":     MustParse("input a\ninput b\n"),
		"nil expression":     {Stmts: []*Stmt{{Kind: StmtPrint}}},
		"bad binary op":      {Stmts: []*Stmt{{Kind: StmtPrint, Expr: &BinExpr{Op: "^", L: &NumLit{Value: 1}, R: &BinExpr{Op: "/", L: &NumLit{Value: 1}, R: &NumLit{}}}}}},
		"bad unary op":       {Stmts: []*Stmt{{Kind: StmtSet, Var: "x", Expr: &UnaryExpr{Op: "+", X: &NumLit{Value: 1}}}}},
		"short-circuited op": {Stmts: []*Stmt{{Kind: StmtPrint, Expr: &BinExpr{Op: "||", L: &NumLit{Value: 1}, R: &UnaryExpr{Op: "~"}}}}},
		"bad statement kind": {Stmts: []*Stmt{{Kind: StmtNop}, {Kind: StmtKind(99)}}},
	}
	for name, p := range cases {
		opts := Options{Input: []int64{0}, MaxSteps: 100, Trace: true}
		if got, want := Compile(p).Run(opts), treeRun(p, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled %+v, oracle %+v", name, got, want)
		}
	}
	// MaxSteps 0 is the default budget.
	spin := MustParse("label spin\ngoto spin\n")
	if got, want := Compile(spin).Run(Options{}), treeRun(spin, Options{}); !reflect.DeepEqual(got, want) || got.Steps != DefaultMaxSteps {
		t.Errorf("default budget: compiled %+v, oracle %+v", got, want)
	}
}

// TestCompilerReusesStatementCode: a program whose statements a Compiler
// has compiled before costs two allocations to compile, the Code and its
// jump table, whatever its length.
func TestCompilerReusesStatementCode(t *testing.T) {
	r := rng.New(7)
	base := randomProgram(r, 40)
	var c Compiler
	c.Compile(base)
	mutant := shuffled(r, base)
	if allocs := testing.AllocsPerRun(100, func() { c.Compile(mutant) }); allocs != 2 {
		t.Fatalf("compiling a mutant of a compiled program allocates %v times, want 2", allocs)
	}
}

// TestCompilerConcurrentUse: goroutines compiling mutants of one base
// through one Compiler, some of them adding statements it has not seen,
// each get code that runs like the oracle. Run it under -race.
func TestCompilerConcurrentUse(t *testing.T) {
	base := randomProgram(rng.New(11), 30)
	var c Compiler
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 200; i++ {
				p := shuffled(r, base)
				if i%10 == 0 {
					p = withEdgeCases(r, p)
				}
				opts := Options{Input: []int64{3, 7}, MaxSteps: 500, Trace: true}
				if got, want := c.Compile(p).Run(opts), treeRun(p, opts); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d mutant %d: compiled %+v, oracle %+v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
