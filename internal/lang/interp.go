package lang

import (
	"errors"
	"fmt"
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

// Run executes the program with the given options. Execution is fully
// deterministic; variables are int64 and read as 0 before assignment.
// Execution ends at a halt statement, by falling off the end, on a runtime
// error, or at the step limit.
func Run(p *Program, opts Options) *Result {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	res := &Result{}
	if opts.Trace {
		res.Coverage = make([]bool, len(p.Stmts))
	}
	labels := p.Labels()
	vars := make(map[string]int64, 16)
	inputPos := 0
	pc := 0

	for pc < len(p.Stmts) {
		if res.Steps >= maxSteps {
			res.Err = &RunError{Reason: ErrStepLimit.Error(), PC: pc}
			return res
		}
		res.Steps++
		if opts.Trace {
			res.Coverage[pc] = true
		}
		s := p.Stmts[pc]
		switch s.Kind {
		case StmtSet:
			v, err := eval(s.Expr, vars)
			if err != nil {
				res.Err = &RunError{Reason: err.Error(), PC: pc}
				return res
			}
			vars[s.Var] = v
		case StmtPrint:
			v, err := eval(s.Expr, vars)
			if err != nil {
				res.Err = &RunError{Reason: err.Error(), PC: pc}
				return res
			}
			res.Output = append(res.Output, v)
		case StmtIf:
			v, err := eval(s.Expr, vars)
			if err != nil {
				res.Err = &RunError{Reason: err.Error(), PC: pc}
				return res
			}
			if v != 0 {
				t, ok := labels[s.Target]
				if !ok {
					res.Err = &RunError{Reason: "jump to missing label " + s.Target, PC: pc}
					return res
				}
				pc = t
				continue
			}
		case StmtGoto:
			t, ok := labels[s.Target]
			if !ok {
				res.Err = &RunError{Reason: "jump to missing label " + s.Target, PC: pc}
				return res
			}
			pc = t
			continue
		case StmtInput:
			if inputPos >= len(opts.Input) {
				res.Err = &RunError{Reason: "input underrun", PC: pc}
				return res
			}
			vars[s.Var] = opts.Input[inputPos]
			inputPos++
		case StmtHalt:
			return res
		case StmtLabel, StmtNop:
			// no effect
		default:
			res.Err = &RunError{Reason: fmt.Sprintf("bad statement kind %d", int(s.Kind)), PC: pc}
			return res
		}
		pc++
	}
	return res
}

// eval evaluates an expression over the variable environment.
func eval(e Expr, vars map[string]int64) (int64, error) {
	switch x := e.(type) {
	case *NumLit:
		return x.Value, nil
	case *VarRef:
		return vars[x.Name], nil
	case *UnaryExpr:
		v, err := eval(x.X, vars)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		default:
			return 0, fmt.Errorf("bad unary operator %q", x.Op)
		}
	case *BinExpr:
		l, err := eval(x.L, vars)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch x.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := eval(x.R, vars)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := eval(x.R, vars)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		r, err := eval(x.R, vars)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, errors.New("division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, errors.New("modulo by zero")
			}
			return l % r, nil
		case "==":
			return boolToInt(l == r), nil
		case "!=":
			return boolToInt(l != r), nil
		case "<":
			return boolToInt(l < r), nil
		case "<=":
			return boolToInt(l <= r), nil
		case ">":
			return boolToInt(l > r), nil
		case ">=":
			return boolToInt(l >= r), nil
		default:
			return 0, fmt.Errorf("bad binary operator %q", x.Op)
		}
	default:
		return 0, fmt.Errorf("bad expression node %T", e)
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
