package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasic(t *testing.T) {
	var s Summary
	addAll(&s, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 || s.n != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Fatal("single-observation summary wrong")
	}
}

func TestSummaryNumericalStability(t *testing.T) {
	// Large offset with small variance: naive sum-of-squares loses all
	// precision here; Welford must not.
	var s Summary
	const offset = 1e9
	for i := 0; i < 1000; i++ {
		s.Add(offset + float64(i%2)) // values: 1e9 and 1e9+1
	}
	if !almostEq(s.Variance(), 0.25025, 1e-3) {
		t.Fatalf("variance = %v, want ~0.2503", s.Variance())
	}
}

func TestArgMaxMin(t *testing.T) {
	xs := []float64{3, 9, 9, 1}
	if ArgMax(xs) != 1 {
		t.Fatalf("ArgMax = %d", ArgMax(xs))
	}
	if ArgMax(nil) != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	addAll(&s, []float64{1, 2, 3})
	if got := s.String(); got != "2.0 (1.0)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	var empty Summary
	if empty.Mean() != 0 {
		t.Fatal("mean of no observations != 0")
	}
	var s Summary
	addAll(&s, []float64{1, 2, 3})
	if !almostEq(s.Mean(), 2, 1e-12) {
		t.Fatal("Mean wrong")
	}
	s = Summary{}
	addAll(&s, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(s.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatal("StdDev wrong")
	}
}

func addAll(s *Summary, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}
