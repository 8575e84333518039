// Package lang implements TinyLang, the small imperative language that
// stands in for the paper's C and Java benchmark programs.
//
// The paper's use of gzip, libtiff, lighttpd, units and the Defects4J
// subjects is statistical: programs expose statement-level mutations, a
// regression test suite determines which mutations are safe, and combined
// mutations interact through real execution. TinyLang reproduces that
// mechanism end-to-end: programs are sequences of statements over integer
// variables; they compile to slot-addressed code that runs, deterministic
// and step-limited, against test cases; coverage tracing restricts mutations to executed code; and
// the statement granularity matches the whole-statement mutation operators
// of GenProg-family repair tools.
//
// The language is deliberately minimal but real: assignments with full
// integer expression syntax, conditional and unconditional jumps to
// labels, input/output, and halt. Anything a generated scenario needs
// (loops, accumulators, guards, redundant recomputation) is expressible.
package lang

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind int

const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokKeyword
	TokOp // operators and punctuation
	TokNewline
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokKeyword:
		return "keyword"
	case TokOp:
		return "operator"
	case TokNewline:
		return "newline"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is one lexical token with its source line (1-based).
type Token struct {
	Kind TokenKind
	Text string
	Line int
}

func (t Token) String() string { return fmt.Sprintf("%s %q (line %d)", t.Kind, t.Text, t.Line) }

// keywords of TinyLang statement forms.
var keywords = map[string]bool{
	"set":   true,
	"print": true,
	"if":    true,
	"goto":  true,
	"label": true,
	"input": true,
	"halt":  true,
	"nop":   true,
}

// IsKeyword reports whether s is a reserved statement keyword.
func IsKeyword(s string) bool { return keywords[s] }
