package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
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

func TestSummaryMergeMatchesSequential(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()*20 - 7
	}
	var whole Summary
	addAll(&whole, xs)
	var a, b Summary
	addAll(&a, xs[:123])
	addAll(&b, xs[123:])
	a.Merge(&b)
	if !almostEq(a.Mean(), whole.Mean(), 1e-9) || !almostEq(a.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merge mismatch: %v/%v vs %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	if a.n != whole.n {
		t.Fatal("merge n mismatch")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	b.Add(4)
	a.Merge(&b) // empty <- nonempty
	if a.n != 1 || a.Mean() != 4 {
		t.Fatal("merge into empty failed")
	}
	var c Summary
	a.Merge(&c) // nonempty <- empty
	if a.n != 1 || a.Mean() != 4 {
		t.Fatal("merge of empty changed summary")
	}
}

func TestQuickMergeAssociativity(t *testing.T) {
	f := func(seed uint64, cut uint8) bool {
		r := rng.New(seed)
		n := 100
		k := int(cut)%n + 1
		var whole, left, right Summary
		for i := 0; i < n; i++ {
			x := r.Float64() * 100
			whole.Add(x)
			if i < k {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(&right)
		return almostEq(left.Mean(), whole.Mean(), 1e-8) &&
			almostEq(left.Variance(), whole.Variance(), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
