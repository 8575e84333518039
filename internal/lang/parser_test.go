package lang

import (
	"testing"
)

func TestParseAllStatementKinds(t *testing.T) {
	src := `set x = 1
print x
if x > 0 goto done
goto done
label done
input y
halt
nop
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []StmtKind{StmtSet, StmtPrint, StmtIf, StmtGoto, StmtLabel, StmtInput, StmtHalt, StmtNop}
	if p.Len() != len(kinds) {
		t.Fatalf("parsed %d statements", p.Len())
	}
	for i, k := range kinds {
		if p.Stmts[i].Kind != k {
			t.Fatalf("stmt %d kind = %v, want %v", i, p.Stmts[i].Kind, k)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 must parse as 1 + (2*3).
	p := MustParse("set x = 1 + 2 * 3\n")
	e := p.Stmts[0].Expr.(*BinExpr)
	if e.Op != "+" {
		t.Fatalf("top op = %q", e.Op)
	}
	r := e.R.(*BinExpr)
	if r.Op != "*" {
		t.Fatalf("right op = %q", r.Op)
	}
}

func TestParseComparisonBindsLooserThanArith(t *testing.T) {
	p := MustParse("set x = a + 1 < b * 2\n")
	e := p.Stmts[0].Expr.(*BinExpr)
	if e.Op != "<" {
		t.Fatalf("top op = %q", e.Op)
	}
}

func TestParseLogicalPrecedence(t *testing.T) {
	// a && b || c parses as (a && b) || c.
	p := MustParse("set x = a && b || c\n")
	e := p.Stmts[0].Expr.(*BinExpr)
	if e.Op != "||" {
		t.Fatalf("top op = %q", e.Op)
	}
	l := e.L.(*BinExpr)
	if l.Op != "&&" {
		t.Fatalf("left op = %q", l.Op)
	}
}

func TestParseParentheses(t *testing.T) {
	p := MustParse("set x = (1 + 2) * 3\n")
	e := p.Stmts[0].Expr.(*BinExpr)
	if e.Op != "*" {
		t.Fatalf("top op = %q", e.Op)
	}
}

func TestParseUnary(t *testing.T) {
	p := MustParse("set x = -y + !z\n")
	e := p.Stmts[0].Expr.(*BinExpr)
	if _, ok := e.L.(*UnaryExpr); !ok {
		t.Fatalf("left = %T", e.L)
	}
	if _, ok := e.R.(*UnaryExpr); !ok {
		t.Fatalf("right = %T", e.R)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"set = 1\n",                      // missing identifier
		"set x 1\n",                      // missing =
		"if x > 0 done\n",                // missing goto
		"goto\n",                         // missing target
		"x = 1\n",                        // missing keyword
		"set x = \n",                     // missing expression
		"set x = (1\n",                   // unclosed paren
		"print 1 2\n",                    // trailing junk
		"set x = 99999999999999999999\n", // overflow
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	src := `input n
set acc = 0
set i = 1
label loop
if i > n goto done
set acc = acc + i * i
set i = i + 1
goto loop
label done
print acc
halt
`
	p1 := MustParse(src)
	text := p1.String()
	p2 := MustParse(text)
	if p2.String() != text {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", text, p2.String())
	}
	// Behaviour must be identical too.
	r1 := Compile(p1).Run(Options{Input: []int64{5}})
	r2 := Compile(p2).Run(Options{Input: []int64{5}})
	if len(r1.Output) != 1 || r1.Output[0] != 55 {
		t.Fatalf("output = %v", r1.Output)
	}
	if r2.Output[0] != r1.Output[0] {
		t.Fatal("round-tripped program behaves differently")
	}
}

func TestProgramClone(t *testing.T) {
	p := MustParse("set x = 1 + y\nprint x\n")
	c := p.Clone()
	// Mutating the clone must not affect the original.
	c.Stmts[0].Expr.(*BinExpr).L.(*NumLit).Value = 99
	c.Stmts[1] = &Stmt{Kind: StmtHalt}
	orig := p.Stmts[0].Expr.(*BinExpr).L.(*NumLit).Value
	if orig != 1 {
		t.Fatalf("clone aliased original: %d", orig)
	}
	if p.Stmts[1].Kind != StmtPrint {
		t.Fatal("clone aliased statement slice")
	}
}

func TestLabels(t *testing.T) {
	p := MustParse("label a\nnop\nlabel b\nlabel a\n")
	m := labelsOf(p)
	if m["a"] != 0 || m["b"] != 2 {
		t.Fatalf("labels = %v", m)
	}
}

func TestStmtStringForms(t *testing.T) {
	cases := map[string]string{
		"set x = 1 + 2\n": "set x = (1 + 2)",
		"print x\n":       "print x",
		"if x goto l\n":   "if x goto l",
		"goto l\n":        "goto l",
		"label l\n":       "label l",
		"input x\n":       "input x",
		"halt\n":          "halt",
		"nop\n":           "nop",
	}
	for src, want := range cases {
		p := MustParse(src)
		if got := p.Stmts[0].String(); got != want {
			t.Fatalf("String(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("set = \n")
}
