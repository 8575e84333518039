package lang

import (
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string, input ...int64) *Result {
	t.Helper()
	return Compile(MustParse(src)).Run(Options{Input: input})
}

func TestArithmetic(t *testing.T) {
	cases := map[string]int64{
		"print 1 + 2\n":       3,
		"print 7 - 10\n":      -3,
		"print 6 * 7\n":       42,
		"print 17 / 5\n":      3,
		"print 17 % 5\n":      2,
		"print -5\n":          -5,
		"print !0\n":          1,
		"print !7\n":          0,
		"print 2 + 3 * 4\n":   14,
		"print (2 + 3) * 4\n": 20,
		"print 1 == 1\n":      1,
		"print 1 != 1\n":      0,
		"print 2 < 3\n":       1,
		"print 3 <= 3\n":      1,
		"print 4 > 5\n":       0,
		"print 5 >= 5\n":      1,
		"print 1 && 2\n":      1,
		"print 1 && 0\n":      0,
		"print 0 || 3\n":      1,
		"print 0 || 0\n":      0,
	}
	for src, want := range cases {
		r := run(t, src)
		if r.Err != nil {
			t.Fatalf("%q: %v", src, r.Err)
		}
		if len(r.Output) != 1 || r.Output[0] != want {
			t.Fatalf("%q output = %v, want %d", src, r.Output, want)
		}
	}
}

func TestVariablesDefaultZero(t *testing.T) {
	r := run(t, "print nosuchvar\n")
	if r.Err != nil || r.Output[0] != 0 {
		t.Fatalf("output = %v err = %v", r.Output, r.Err)
	}
}

func TestAssignmentAndFlow(t *testing.T) {
	src := `input n
set total = 0
set i = 0
label loop
if i >= n goto done
set total = total + i
set i = i + 1
goto loop
label done
print total
`
	r := run(t, src, 10)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Output[0] != 45 {
		t.Fatalf("sum = %v", r.Output)
	}
}

func TestHaltStopsExecution(t *testing.T) {
	r := run(t, "print 1\nhalt\nprint 2\n")
	if len(r.Output) != 1 || r.Output[0] != 1 {
		t.Fatalf("output = %v", r.Output)
	}
}

func TestFallOffEnd(t *testing.T) {
	r := run(t, "set x = 1\n")
	if r.Err != nil {
		t.Fatalf("fall-through should succeed: %v", r.Err)
	}
}

func TestDivisionByZeroFails(t *testing.T) {
	r := run(t, "print 1 / 0\n")
	if r.Err == nil {
		t.Fatal("expected runtime error")
	}
	if !strings.Contains(r.Err.Error(), "division by zero") {
		t.Fatalf("err = %v", r.Err)
	}
}

func TestModuloByZeroFails(t *testing.T) {
	r := run(t, "input x\nprint 5 % x\n", 0)
	if r.Err == nil {
		t.Fatal("expected runtime error")
	}
}

func TestShortCircuitPreventsError(t *testing.T) {
	// 0 && (1/0) must not evaluate the division.
	r := run(t, "input z\nprint 0 && (1 / z)\n", 0)
	if r.Err != nil {
		t.Fatalf("short circuit failed: %v", r.Err)
	}
	if r.Output[0] != 0 {
		t.Fatalf("output = %v", r.Output)
	}
	r = run(t, "input z\nprint 1 || (1 / z)\n", 0)
	if r.Err != nil || r.Output[0] != 1 {
		t.Fatalf("or short circuit failed: %v %v", r.Output, r.Err)
	}
}

func TestInfiniteLoopHitsStepLimit(t *testing.T) {
	r := Compile(MustParse("label spin\ngoto spin\n")).Run(Options{MaxSteps: 1000})
	if r.Err == nil {
		t.Fatal("expected step-limit error")
	}
	if !strings.Contains(r.Err.Error(), "step limit") {
		t.Fatalf("err = %v", r.Err)
	}
	if r.Steps != 1000 {
		t.Fatalf("steps = %d", r.Steps)
	}
}

func TestMissingLabelFails(t *testing.T) {
	r := run(t, "goto nowhere\n")
	if r.Err == nil || !strings.Contains(r.Err.Error(), "missing label") {
		t.Fatalf("err = %v", r.Err)
	}
	// Conditional jump to missing label only fails when taken.
	r = run(t, "if 0 goto nowhere\nprint 1\n")
	if r.Err != nil {
		t.Fatalf("untaken jump should not fail: %v", r.Err)
	}
	r = run(t, "if 1 goto nowhere\n")
	if r.Err == nil {
		t.Fatal("taken jump to missing label must fail")
	}
}

func TestInputUnderrun(t *testing.T) {
	r := run(t, "input a\ninput b\n", 1)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "input underrun") {
		t.Fatalf("err = %v", r.Err)
	}
}

func TestInputConsumedInOrder(t *testing.T) {
	r := run(t, "input a\ninput b\nprint b - a\n", 10, 25)
	if r.Err != nil || r.Output[0] != 15 {
		t.Fatalf("output = %v err = %v", r.Output, r.Err)
	}
}

func TestCoverageTracing(t *testing.T) {
	src := `input n
if n > 0 goto pos
print -1
halt
label pos
print 1
`
	p := MustParse(src)
	r := Compile(p).Run(Options{Input: []int64{5}, Trace: true})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Statements 2,3 (print -1, halt) must be uncovered; 0,1,4,5 covered.
	want := []bool{true, true, false, false, true, true}
	for i, w := range want {
		if r.Coverage[i] != w {
			t.Fatalf("coverage[%d] = %v, want %v (full %v)", i, r.Coverage[i], w, r.Coverage)
		}
	}
	// Without Trace, coverage stays nil.
	r2 := Compile(p).Run(Options{Input: []int64{5}})
	if r2.Coverage != nil {
		t.Fatal("coverage collected without Trace")
	}
}

func TestNopAndLabelAreInert(t *testing.T) {
	r := run(t, "nop\nlabel x\nnop\nprint 7\n")
	if r.Err != nil || r.Output[0] != 7 {
		t.Fatalf("output = %v err = %v", r.Output, r.Err)
	}
}

func TestRunErrorReportsPC(t *testing.T) {
	r := run(t, "nop\nnop\nprint 1 / 0\n")
	var re *RunError
	if !asRunError(r.Err, &re) {
		t.Fatalf("err type = %T", r.Err)
	}
	if re.PC != 2 {
		t.Fatalf("PC = %d", re.PC)
	}
}

func asRunError(err error, target **RunError) bool {
	re, ok := err.(*RunError)
	if ok {
		*target = re
	}
	return ok
}

func TestDeterminism(t *testing.T) {
	src := `input n
set h = 7
set i = 0
label loop
if i >= n goto out
set h = (h * 31 + i) % 1000003
set i = i + 1
goto loop
label out
print h
`
	p := MustParse(src)
	r1 := Compile(p).Run(Options{Input: []int64{100}})
	r2 := Compile(p).Run(Options{Input: []int64{100}})
	if r1.Output[0] != r2.Output[0] || r1.Steps != r2.Steps {
		t.Fatal("interpreter not deterministic")
	}
}

// Property: for arbitrary small arithmetic programs, evaluation never
// panics and matches a direct computation.
func TestQuickArithMatchesGo(t *testing.T) {
	f := func(a, b int16, op uint8) bool {
		ops := []string{"+", "-", "*", "==", "!=", "<", "<=", ">", ">="}
		o := ops[int(op)%len(ops)]
		src := "input a\ninput b\nprint a " + o + " b\n"
		r := Compile(MustParse(src)).Run(Options{Input: []int64{int64(a), int64(b)}})
		if r.Err != nil || len(r.Output) != 1 {
			return false
		}
		var want int64
		x, y := int64(a), int64(b)
		switch o {
		case "+":
			want = x + y
		case "-":
			want = x - y
		case "*":
			want = x * y
		case "==":
			want = boolToInt(x == y)
		case "!=":
			want = boolToInt(x != y)
		case "<":
			want = boolToInt(x < y)
		case "<=":
			want = boolToInt(x <= y)
		case ">":
			want = boolToInt(x > y)
		case ">=":
			want = boolToInt(x >= y)
		}
		return r.Output[0] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	src := `input n
set acc = 0
set i = 0
label loop
if i >= n goto done
set acc = (acc + i * i) % 65521
set i = i + 1
goto loop
label done
print acc
`
	c := Compile(MustParse(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(Options{Input: []int64{1000}})
	}
}
