// Package mutation implements whole-statement mutation operators over
// TinyLang programs — the GenProg-family edit vocabulary the paper's
// repair algorithms share (Sec. III, IV-G: "MWRepair uses the same
// mutation operators as all four of the algorithms mentioned above").
//
// A Mutation is a value (not a closure) addressed in the coordinates of
// the original program, so mutations can be precomputed once, serialized
// into a pool, and composed in arbitrary subsets later — the heart of the
// paper's precompute phase. Composition applies index-stable operators
// first (delete = replace-with-nop, replace, swap) and insertions last,
// from the highest index down, so any subset of pool mutations yields a
// well-defined mutant regardless of composition order.
package mutation

import (
	"fmt"
	"slices"

	"repro/internal/lang"
	"repro/internal/rng"
)

// Op is a mutation operator kind.
type Op int

const (
	// Delete removes the target statement (implemented as replacement
	// with nop so statement indices remain stable under composition).
	Delete Op = iota
	// Replace overwrites the target with the source statement.
	Replace
	// Insert inserts the source statement after the target.
	Insert
	// Swap exchanges the target and source statements.
	Swap
)

// Ops lists all operator kinds.
var Ops = []Op{Delete, Replace, Insert, Swap}

func (o Op) String() string {
	switch o {
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	case Insert:
		return "insert"
	case Swap:
		return "swap"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Mutation is one whole-statement edit in original-program coordinates.
// At is the target statement index; From is the source statement index
// for Replace, Insert and Swap (ignored for Delete). Mutations are plain
// values and serialize with encoding/json for pool persistence.
type Mutation struct {
	Op   Op  `json:"op"`
	At   int `json:"at"`
	From int `json:"from,omitempty"`
}

// ID returns a stable, human-readable identity string, the mutation's key
// for deduplication.
func (m Mutation) ID() string {
	switch m.Op {
	case Delete:
		return fmt.Sprintf("del@%d", m.At)
	case Replace:
		return fmt.Sprintf("rep@%d<-%d", m.At, m.From)
	case Insert:
		return fmt.Sprintf("ins@%d<-%d", m.At, m.From)
	case Swap:
		a, b := m.At, m.From
		if b < a {
			a, b = b, a
		}
		return fmt.Sprintf("swap@%d<->%d", a, b)
	default:
		return fmt.Sprintf("bad@%d", m.At)
	}
}

// Validate checks the mutation against a program of n statements.
func (m Mutation) Validate(n int) error {
	if m.At < 0 || m.At >= n {
		return fmt.Errorf("mutation: target %d out of range [0,%d)", m.At, n)
	}
	switch m.Op {
	case Delete:
		return nil
	case Replace, Insert, Swap:
		if m.From < 0 || m.From >= n {
			return fmt.Errorf("mutation: source %d out of range [0,%d)", m.From, n)
		}
		return nil
	default:
		return fmt.Errorf("mutation: unknown op %d", int(m.Op))
	}
}

// nop is the statement every Delete points at. Like all statements it is
// never written after construction, so one value serves every mutant.
var nop = &lang.Stmt{Kind: lang.StmtNop}

// Apply composes the mutations onto a copy of the original program's
// statement slice. The original is never modified. In-place operators
// apply in slice order (later mutations targeting the same statement win);
// insertions apply afterwards in descending target order so every
// insertion lands at its original-coordinate position. Source statements
// are always taken from the unmodified original, making composition
// independent of the order in which in-place edits were generated.
//
// The mutant shares the original's statements rather than cloning them:
// a probe copies one pointer per statement, not the tree under it. This
// relies on statements being immutable after construction (lang.Stmt).
func Apply(original *lang.Program, muts []Mutation) *lang.Program {
	out := &lang.Program{Stmts: slices.Clone(original.Stmts)}
	n := original.Len()
	var inserts []Mutation
	for _, m := range muts {
		if err := m.Validate(n); err != nil {
			panic(err)
		}
		switch m.Op {
		case Delete:
			out.Stmts[m.At] = nop
		case Replace:
			out.Stmts[m.At] = original.Stmts[m.From]
		case Swap:
			// Swap uses the current working copy so two swaps compose like
			// transpositions; sources within the copy keep the operator
			// meaningful when targets overlap.
			out.Stmts[m.At], out.Stmts[m.From] = out.Stmts[m.From], out.Stmts[m.At]
		case Insert:
			inserts = append(inserts, m)
		}
	}
	if len(inserts) == 0 {
		return out
	}
	// Rebuild in one pass: statements at original index i are followed by
	// the insertions targeting i, in reverse mutation order (matching the
	// semantics of inserting each at position i+1 in turn), which a stable
	// sort by target of the reversed inserts lines up. This keeps
	// composition O(n + #inserts log #inserts) instead of shifting the
	// slice per insertion, which matters when probes compose thousands of
	// pool mutations.
	slices.Reverse(inserts)
	slices.SortStableFunc(inserts, func(a, b Mutation) int { return a.At - b.At })
	rebuilt := make([]*lang.Stmt, 0, len(out.Stmts)+len(inserts))
	for i, s := range out.Stmts {
		rebuilt = append(rebuilt, s)
		for ; len(inserts) > 0 && inserts[0].At == i; inserts = inserts[1:] {
			rebuilt = append(rebuilt, original.Stmts[inserts[0].From])
		}
	}
	out.Stmts = rebuilt
	return out
}

// Random draws a uniformly random mutation whose target lies in the
// covered statement set (the paper restricts mutations to lines executed
// by the regression suite) and whose source is any statement of the
// program. It panics if covered is empty.
func Random(p *lang.Program, covered []int, r *rng.RNG) Mutation {
	if len(covered) == 0 {
		panic("mutation: no covered statements to target")
	}
	op := Ops[r.Intn(len(Ops))]
	at := covered[r.Intn(len(covered))]
	m := Mutation{Op: op, At: at}
	if op != Delete {
		m.From = r.Intn(p.Len())
	}
	return m
}
