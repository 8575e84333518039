package lang

import (
	"errors"
	"fmt"
	"sync"
)

// RunError is a runtime failure: division by zero, step-limit exhaustion
// (infinite loop), jump to a missing label, or input underrun. For test
// evaluation purposes any RunError means the run fails.
type RunError struct {
	Reason string
	PC     int // statement index at failure
}

func (e *RunError) Error() string {
	return fmt.Sprintf("lang: runtime error at stmt %d: %s", e.PC, e.Reason)
}

// ErrStepLimit is wrapped by RunError when execution exceeds the step
// budget — how mutated programs with accidental infinite loops are
// contained.
var ErrStepLimit = errors.New("step limit exceeded")

// Result is the outcome of one execution.
type Result struct {
	// Output is the sequence of printed values.
	Output []int64
	// Steps is the number of statements executed.
	Steps int
	// Coverage[i] is true if statement i executed at least once. Only
	// populated when Options.Trace is set.
	Coverage []bool
	// Err is the runtime error, if any (nil for clean halt/fall-through).
	Err error
}

// Options control one execution.
type Options struct {
	// Input is the queue consumed by input statements.
	Input []int64
	// MaxSteps bounds execution; 0 means DefaultMaxSteps.
	MaxSteps int
	// Trace enables per-statement coverage collection.
	Trace bool
}

// DefaultMaxSteps is the per-run statement budget. Generated scenario
// programs run in a few thousand steps; the budget is generous enough for
// any safe mutant and small enough to terminate pathological loops fast.
const DefaultMaxSteps = 200000

// opcode is one instruction of a compiled expression. An expression
// compiles to postfix code over a value stack: operands first, left to
// right, then the operator, which is the order the language defines for
// evaluation and therefore for which runtime error a run reports.
type opcode uint8

const (
	opConst opcode = iota // push arg
	opLoad                // push the variable in slot arg
	opNeg
	opNot
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd  // top == 0: the result is 0, skip arg instructions; else pop
	opOr   // top != 0: the result is 1, skip arg instructions; else pop
	opBool // top = top != 0
	opFail // runtime error fails[arg]: a node the language does not define
)

var binOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
}

type instr struct {
	op  opcode
	arg int64
}

// stmtCode is one statement's compiled form. It depends only on the
// statement and the Compiler's slot and label tables, so every program
// that contains the statement shares it.
type stmtCode struct {
	kind   StmtKind
	slot   int32    // set, input: the variable's slot
	label  int32    // label, if, goto: the label's id
	depth  int      // value-stack depth expr needs
	expr   []instr  // set, print, if
	fails  []string // the reasons opFail instructions report
	target string   // if, goto: the label name a missing-label error reports
}

// step is a statement of one program: its shared code and, for a jump, the
// target resolved in that program.
type step struct {
	*stmtCode
	jump int // if, goto: pc of the target label, -1 when the program lacks it
}

// Code is a program compiled for execution. Run it any number of times,
// from any number of goroutines.
type Code struct {
	steps  []step
	nslots int // the variable slots the statements use
	depth  int // the deepest value stack any expression needs
}

// Compiler compiles programs and keeps what it compiled: each statement's
// code, keyed by the *Stmt, and the tables that give every variable name a
// slot in a run's variable array and every label name an id. Mutants share
// their original's statements (mutation.Apply), so once the original is
// compiled a mutant's statements are only looked up; what is built per
// program is its jump table, jumps resolved to statement indices. The
// tables grow with the distinct statements given, so one Compiler serves
// one base program and its mutants. The zero Compiler is ready to use,
// and it is safe for concurrent use.
type Compiler struct {
	mu     sync.RWMutex
	stmts  map[*Stmt]*stmtCode // guarded by mu
	slots  map[string]int32    // variable name -> slot; guarded by mu
	labels map[string]int32    // label name -> id; guarded by mu
}

// Compile compiles p with a Compiler of its own. Compile a program once
// and run the Code for each input: one compile per run costs about as much
// as the run.
func Compile(p *Program) *Code {
	var c Compiler
	return c.Compile(p)
}

// Compile compiles p, reusing the code of every statement this Compiler
// has compiled before.
func (c *Compiler) Compile(p *Program) *Code {
	code := &Code{steps: make([]step, len(p.Stmts))}
	c.mu.RLock()
	nlabels, complete := c.fill(p, code, false)
	c.mu.RUnlock()
	if !complete {
		c.mu.Lock()
		nlabels, _ = c.fill(p, code, true)
		c.mu.Unlock()
	}
	code.link(nlabels)
	return code
}

// fill points code's steps at the memo's statement code and returns the
// label count. It compiles a statement the memo lacks when compile is set
// (call with c.mu write-locked) and otherwise reports that it stopped
// there (call with c.mu read-locked).
func (c *Compiler) fill(p *Program, code *Code, compile bool) (int, bool) {
	for i, s := range p.Stmts {
		sc := c.stmts[s]
		if sc == nil {
			if !compile {
				return 0, false
			}
			if c.stmts == nil {
				c.stmts = make(map[*Stmt]*stmtCode)
				c.slots = make(map[string]int32)
				c.labels = make(map[string]int32)
			}
			sc = c.compileStmt(s)
			c.stmts[s] = sc
		}
		code.steps[i].stmtCode = sc
		code.depth = max(code.depth, sc.depth)
	}
	code.nslots = len(c.slots)
	return len(c.labels), true
}

func (c *Compiler) compileStmt(s *Stmt) *stmtCode {
	sc := &stmtCode{kind: s.Kind}
	switch s.Kind {
	case StmtSet, StmtInput:
		sc.slot = intern(c.slots, s.Var)
	case StmtLabel:
		sc.label = intern(c.labels, s.Target)
	case StmtIf, StmtGoto:
		sc.label = intern(c.labels, s.Target)
		sc.target = s.Target
	}
	switch s.Kind {
	case StmtSet, StmtPrint, StmtIf:
		c.compileExpr(sc, s.Expr, 0)
	}
	return sc
}

// intern returns name's index in table, adding it if it is new.
func intern(table map[string]int32, name string) int32 {
	id, ok := table[name]
	if !ok {
		id = int32(len(table))
		table[name] = id
	}
	return id
}

// compileExpr appends e's code to sc.expr; height is the value-stack
// height before it runs.
func (c *Compiler) compileExpr(sc *stmtCode, e Expr, height int) {
	switch x := e.(type) {
	case *NumLit:
		sc.emit(opConst, x.Value, height+1)
	case *VarRef:
		sc.emit(opLoad, int64(intern(c.slots, x.Name)), height+1)
	case *UnaryExpr:
		c.compileExpr(sc, x.X, height)
		switch x.Op {
		case "-":
			sc.emit(opNeg, 0, height+1)
		case "!":
			sc.emit(opNot, 0, height+1)
		default:
			sc.fail(fmt.Sprintf("bad unary operator %q", x.Op))
		}
	case *BinExpr:
		c.compileExpr(sc, x.L, height)
		if x.Op == "&&" || x.Op == "||" {
			op := opAnd
			if x.Op == "||" {
				op = opOr
			}
			at := len(sc.expr)
			sc.emit(op, 0, height+1)
			c.compileExpr(sc, x.R, height)
			sc.emit(opBool, 0, height+1)
			sc.expr[at].arg = int64(len(sc.expr) - at - 1)
			return
		}
		c.compileExpr(sc, x.R, height+1)
		if op, ok := binOps[x.Op]; ok {
			sc.emit(op, 0, height+1)
		} else {
			sc.fail(fmt.Sprintf("bad binary operator %q", x.Op))
		}
	default:
		sc.fail(fmt.Sprintf("bad expression node %T", e))
	}
}

func (sc *stmtCode) emit(op opcode, arg int64, height int) {
	sc.expr = append(sc.expr, instr{op: op, arg: arg})
	sc.depth = max(sc.depth, height)
}

func (sc *stmtCode) fail(reason string) {
	sc.expr = append(sc.expr, instr{op: opFail, arg: int64(len(sc.fails))})
	sc.fails = append(sc.fails, reason)
}

// link resolves every jump of the program to the first label statement
// with the target's name; later duplicates are inert, which keeps mutated
// programs well-defined. A jump whose label the program lacks resolves to
// -1 and fails only when it is taken.
func (code *Code) link(nlabels int) {
	var buf [64]int
	at := buf[:]
	if nlabels > len(buf) {
		at = make([]int, nlabels)
	}
	for i := range at {
		at[i] = -1
	}
	for pc, s := range code.steps {
		if s.kind == StmtLabel && at[s.label] < 0 {
			at[s.label] = pc
		}
	}
	for pc := range code.steps {
		if s := &code.steps[pc]; s.kind == StmtIf || s.kind == StmtGoto {
			s.jump = at[s.label]
		}
	}
}

// Run executes the program with the given options. Execution is fully
// deterministic; variables are int64 and read as 0 before assignment.
// Execution ends at a halt statement, by falling off the end, on a runtime
// error, or at the step limit.
func (code *Code) Run(opts Options) *Result {
	m := machine{input: opts.Input, maxSteps: opts.MaxSteps}
	res := &Result{}
	if opts.Trace {
		res.Coverage = make([]bool, len(code.steps))
		m.cov = res.Coverage
	}
	if err := code.exec(&m); err != nil {
		res.Err = err
	}
	res.Output, res.Steps = m.out, m.steps
	return res
}

// Passes reports whether a run on input ends without a runtime error
// having printed exactly want. It stops at the first printed value that
// cannot match: output only grows, so the verdict is the one a full Run
// would give.
func (code *Code) Passes(input, want []int64, maxSteps int) bool {
	m := machine{input: input, maxSteps: maxSteps, check: true, want: want}
	return code.exec(&m) == nil && m.matched == len(want)
}

// machine is the state of one run.
type machine struct {
	input    []int64
	maxSteps int
	cov      []bool // statement coverage, when traced

	// check compares prints with want as they happen instead of
	// collecting them in out; matched counts the prints that matched.
	check   bool
	want    []int64
	matched int

	out   []int64
	steps int
}

// errMismatch ends a checked run at a print that cannot match.
var errMismatch = &RunError{Reason: "output mismatch"}

func (code *Code) exec(m *machine) *RunError {
	maxSteps := m.maxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	mem := make([]int64, code.nslots+code.depth)
	vars, stack := mem[:code.nslots], mem[code.nslots:]
	steps, n, inputPos := code.steps, 0, 0
	var err *RunError
run:
	for pc := 0; pc < len(steps); {
		if n >= maxSteps {
			err = &RunError{Reason: ErrStepLimit.Error(), PC: pc}
			break
		}
		n++
		if m.cov != nil {
			m.cov[pc] = true
		}
		s := &steps[pc]
		switch s.kind {
		case StmtSet:
			v, fail := s.eval(vars, stack)
			if fail != "" {
				err = &RunError{Reason: fail, PC: pc}
				break run
			}
			vars[s.slot] = v
		case StmtPrint:
			v, fail := s.eval(vars, stack)
			if fail != "" {
				err = &RunError{Reason: fail, PC: pc}
				break run
			}
			if !m.check {
				m.out = append(m.out, v)
			} else if m.matched < len(m.want) && m.want[m.matched] == v {
				m.matched++
			} else {
				err = errMismatch
				break run
			}
		case StmtIf:
			v, fail := s.eval(vars, stack)
			if fail != "" {
				err = &RunError{Reason: fail, PC: pc}
				break run
			}
			if v != 0 {
				if s.jump < 0 {
					err = &RunError{Reason: "jump to missing label " + s.target, PC: pc}
					break run
				}
				pc = s.jump
				continue
			}
		case StmtGoto:
			if s.jump < 0 {
				err = &RunError{Reason: "jump to missing label " + s.target, PC: pc}
				break run
			}
			pc = s.jump
			continue
		case StmtInput:
			if inputPos >= len(m.input) {
				err = &RunError{Reason: "input underrun", PC: pc}
				break run
			}
			vars[s.slot] = m.input[inputPos]
			inputPos++
		case StmtHalt:
			break run
		case StmtLabel, StmtNop:
			// no effect
		default:
			err = &RunError{Reason: fmt.Sprintf("bad statement kind %d", int(s.kind)), PC: pc}
			break run
		}
		pc++
	}
	m.steps = n
	return err
}

// eval runs the statement's expression code and returns its value, or the
// reason evaluation failed.
func (sc *stmtCode) eval(vars, stack []int64) (int64, string) {
	sp := 0
	code := sc.expr
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		switch in.op {
		case opConst:
			stack[sp] = in.arg
			sp++
		case opLoad:
			stack[sp] = vars[in.arg]
			sp++
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opNot:
			stack[sp-1] = boolToInt(stack[sp-1] == 0)
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			sp--
			if stack[sp] == 0 {
				return 0, "division by zero"
			}
			stack[sp-1] /= stack[sp]
		case opMod:
			sp--
			if stack[sp] == 0 {
				return 0, "modulo by zero"
			}
			stack[sp-1] %= stack[sp]
		case opEq:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] == stack[sp])
		case opNe:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] != stack[sp])
		case opLt:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] < stack[sp])
		case opLe:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] <= stack[sp])
		case opGt:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] > stack[sp])
		case opGe:
			sp--
			stack[sp-1] = boolToInt(stack[sp-1] >= stack[sp])
		case opAnd:
			if stack[sp-1] == 0 {
				pc += int(in.arg)
			} else {
				sp--
			}
		case opOr:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
				pc += int(in.arg)
			} else {
				sp--
			}
		case opBool:
			stack[sp-1] = boolToInt(stack[sp-1] != 0)
		case opFail:
			return 0, sc.fails[in.arg]
		}
	}
	return stack[0], ""
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
