package lang

import (
	"fmt"
	"strings"
)

// Expr is a TinyLang expression node.
type Expr interface {
	// String renders the expression in canonical (re-parseable) form.
	String() string
	// clone returns a deep copy.
	clone() Expr
}

// NumLit is an integer literal.
type NumLit struct{ Value int64 }

func (n *NumLit) String() string { return fmt.Sprintf("%d", n.Value) }
func (n *NumLit) clone() Expr    { c := *n; return &c }

// VarRef reads a variable (undefined variables read as 0).
type VarRef struct{ Name string }

func (v *VarRef) String() string { return v.Name }
func (v *VarRef) clone() Expr    { c := *v; return &c }

// UnaryExpr is unary minus or logical not.
type UnaryExpr struct {
	Op string // "-" or "!"
	X  Expr
}

func (u *UnaryExpr) String() string { return fmt.Sprintf("(%s%s)", u.Op, u.X) }
func (u *UnaryExpr) clone() Expr    { return &UnaryExpr{Op: u.Op, X: u.X.clone()} }

// BinExpr is a binary operation. Comparison and logical operators yield
// 0 or 1.
type BinExpr struct {
	Op   string
	L, R Expr
}

func (b *BinExpr) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }
func (b *BinExpr) clone() Expr    { return &BinExpr{Op: b.Op, L: b.L.clone(), R: b.R.clone()} }

// StmtKind classifies statements.
type StmtKind int

const (
	StmtSet StmtKind = iota
	StmtPrint
	StmtIf
	StmtGoto
	StmtLabel
	StmtInput
	StmtHalt
	StmtNop
)

func (k StmtKind) String() string {
	switch k {
	case StmtSet:
		return "set"
	case StmtPrint:
		return "print"
	case StmtIf:
		return "if"
	case StmtGoto:
		return "goto"
	case StmtLabel:
		return "label"
	case StmtInput:
		return "input"
	case StmtHalt:
		return "halt"
	case StmtNop:
		return "nop"
	default:
		return fmt.Sprintf("StmtKind(%d)", int(k))
	}
}

// Stmt is one TinyLang statement. Exactly the fields relevant to the Kind
// are set:
//
//	set   <Var> = <Expr>
//	print <Expr>
//	if <Expr> goto <Target>
//	goto  <Target>
//	label <Target>
//	input <Var>
//	halt
//	nop
type Stmt struct {
	Kind   StmtKind
	Var    string
	Expr   Expr
	Target string
}

// String renders the statement in canonical re-parseable form.
func (s *Stmt) String() string {
	switch s.Kind {
	case StmtSet:
		return fmt.Sprintf("set %s = %s", s.Var, s.Expr)
	case StmtPrint:
		return fmt.Sprintf("print %s", s.Expr)
	case StmtIf:
		return fmt.Sprintf("if %s goto %s", s.Expr, s.Target)
	case StmtGoto:
		return fmt.Sprintf("goto %s", s.Target)
	case StmtLabel:
		return fmt.Sprintf("label %s", s.Target)
	case StmtInput:
		return fmt.Sprintf("input %s", s.Var)
	case StmtHalt:
		return "halt"
	case StmtNop:
		return "nop"
	default:
		return fmt.Sprintf("<bad stmt kind %d>", int(s.Kind))
	}
}

// Clone returns a deep copy of the statement.
func (s *Stmt) Clone() *Stmt {
	c := &Stmt{Kind: s.Kind, Var: s.Var, Target: s.Target}
	if s.Expr != nil {
		c.Expr = s.Expr.clone()
	}
	return c
}

// Program is a sequence of statements. The statement index is the unit of
// mutation (whole-statement edits, as in GenProg-family tools).
type Program struct {
	Stmts []*Stmt
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	out := &Program{Stmts: make([]*Stmt, len(p.Stmts))}
	for i, s := range p.Stmts {
		out.Stmts[i] = s.Clone()
	}
	return out
}

// Len returns the number of statements.
func (p *Program) Len() int { return len(p.Stmts) }

// String renders the whole program as canonical source, one statement per
// line. Parse(p.String()) reproduces an equivalent program, and the text
// serves as the program's identity for mutant deduplication.
func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Labels returns a map from label name to statement index. Duplicate
// labels resolve to the first occurrence (later duplicates are inert,
// which keeps mutated programs well-defined).
func (p *Program) Labels() map[string]int {
	m := make(map[string]int)
	for i, s := range p.Stmts {
		if s.Kind == StmtLabel {
			if _, dup := m[s.Target]; !dup {
				m[s.Target] = i
			}
		}
	}
	return m
}
