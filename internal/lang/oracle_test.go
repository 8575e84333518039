package lang

import (
	"errors"
	"fmt"
)

// treeRun is the tree-walking interpreter the compiled engine replaced,
// kept as the differential oracle: Code.Run must return what it returns
// for every program and input. It resolves labels through a map per run
// and variables through a map, and evaluates by walking the expression
// tree.
func treeRun(p *Program, opts Options) *Result {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	res := &Result{}
	if opts.Trace {
		res.Coverage = make([]bool, len(p.Stmts))
	}
	labels := labelsOf(p)
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
			v, err := treeEval(s.Expr, vars)
			if err != nil {
				res.Err = &RunError{Reason: err.Error(), PC: pc}
				return res
			}
			vars[s.Var] = v
		case StmtPrint:
			v, err := treeEval(s.Expr, vars)
			if err != nil {
				res.Err = &RunError{Reason: err.Error(), PC: pc}
				return res
			}
			res.Output = append(res.Output, v)
		case StmtIf:
			v, err := treeEval(s.Expr, vars)
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

// labelsOf maps each label name to the index of its first label
// statement; later duplicates are inert.
func labelsOf(p *Program) map[string]int {
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

// treeEval evaluates an expression over the variable environment.
func treeEval(e Expr, vars map[string]int64) (int64, error) {
	switch x := e.(type) {
	case *NumLit:
		return x.Value, nil
	case *VarRef:
		return vars[x.Name], nil
	case *UnaryExpr:
		v, err := treeEval(x.X, vars)
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
		l, err := treeEval(x.L, vars)
		if err != nil {
			return 0, err
		}
		// Short-circuit logical operators.
		switch x.Op {
		case "&&":
			if l == 0 {
				return 0, nil
			}
			r, err := treeEval(x.R, vars)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case "||":
			if l != 0 {
				return 1, nil
			}
			r, err := treeEval(x.R, vars)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		r, err := treeEval(x.R, vars)
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
