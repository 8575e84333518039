package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNewClampsValues(t *testing.T) {
	d := New("x", []float64{-0.5, 0.5, 1.5, math.NaN()})
	want := []float64{0, 0.5, 1, 0}
	for i, w := range want {
		if d.Value(i) != w {
			t.Fatalf("value[%d] = %v, want %v", i, d.Value(i), w)
		}
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("x", nil)
}

func TestBestIndex(t *testing.T) {
	d := New("x", []float64{0.1, 0.9, 0.4})
	if d.Best() != 1 || d.BestValue() != 0.9 {
		t.Fatalf("best = %d@%v", d.Best(), d.BestValue())
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	d := New("x", []float64{0.1, 0.2})
	vs := d.Values()
	vs[0] = 99
	if d.Value(0) != 0.1 {
		t.Fatal("Values() aliases internal state")
	}
}

func TestAccuracy(t *testing.T) {
	d := New("x", []float64{0.5, 1.0})
	if got := d.Accuracy(1); got != 100 {
		t.Fatalf("accuracy of best = %v", got)
	}
	if got := d.Accuracy(0); got != 50 {
		t.Fatalf("accuracy of half-value option = %v", got)
	}
}

func TestAccuracyDegenerate(t *testing.T) {
	d := New("x", []float64{0, 0})
	if d.Accuracy(0) != 100 {
		t.Fatal("all-zero distribution should score 100")
	}
}

func TestRandomDistribution(t *testing.T) {
	r := rng.New(1)
	d := Random("random256", 256, r)
	if d.Size() != 256 {
		t.Fatalf("size = %d", d.Size())
	}
	for i := 0; i < d.Size(); i++ {
		if v := d.Value(i); v < 0 || v >= 1 {
			t.Fatalf("value[%d] = %v out of range", i, v)
		}
	}
}

func TestRandomDeterministicUnderSeed(t *testing.T) {
	a := Random("a", 64, rng.New(9))
	b := Random("b", 64, rng.New(9))
	for i := 0; i < 64; i++ {
		if a.Value(i) != b.Value(i) {
			t.Fatal("same seed produced different distributions")
		}
	}
}

func TestUnimodalShape(t *testing.T) {
	p := UnimodalParams{A: 1, B: 0.5, C: 0.1}
	d := Unimodal("u", 200, p)
	if !IsUnimodal(d.Values(), 1e-12) {
		t.Fatal("unimodal distribution is not unimodal")
	}
	// Mode of x e^{-0.5x} is at x=2, i.e. i = 2*200/10 - 1 = 39.
	if got, want := d.Best(), p.ModeIndex(200); got != want {
		t.Fatalf("best = %d, mode index = %d", got, want)
	}
}

func TestUnimodalMaxAtMostOne(t *testing.T) {
	p := UnimodalParams{A: 1, B: 0.1, C: 0.9} // would exceed 1 unnormalized
	d := Unimodal("u", 100, p)
	for i := 0; i < d.Size(); i++ {
		if d.Value(i) > 1 {
			t.Fatalf("value[%d] = %v > 1", i, d.Value(i))
		}
	}
	if d.BestValue() < 0.99 {
		t.Fatalf("normalized max should be ~1, got %v", d.BestValue())
	}
}

func TestUnimodalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Unimodal("u", 0, UnimodalParams{A: 1, B: 1}) },
		func() { Unimodal("u", 10, UnimodalParams{A: 1, B: 0}) },
		func() { Random("r", 0, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuickUnimodalAlwaysUnimodal(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%500 + 3
		p := RandomUnimodalParams(rng.New(seed))
		d := Unimodal("u", k, p)
		return IsUnimodal(d.Values(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliMatchesValue(t *testing.T) {
	d := New("x", []float64{0.25})
	r := rng.New(5)
	const trials = 100000
	hits := 0.0
	for i := 0; i < trials; i++ {
		hits += d.Bernoulli(0, r)
	}
	if got := hits / trials; math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bernoulli frequency %v, want ~0.25", got)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	d := New("x", []float64{0, 1})
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		if d.Bernoulli(0, r) != 0 {
			t.Fatal("zero-value option yielded reward")
		}
		if d.Bernoulli(1, r) != 1 {
			t.Fatal("one-value option failed")
		}
	}
}

func TestIsUnimodal(t *testing.T) {
	cases := []struct {
		vs   []float64
		want bool
	}{
		{[]float64{1, 2, 3}, true},
		{[]float64{3, 2, 1}, true},
		{[]float64{1, 3, 2}, true},
		{[]float64{1, 3, 2, 4}, false},
		{[]float64{2, 1, 3}, false},
		{[]float64{1}, true},
		{nil, true},
	}
	for _, c := range cases {
		if got := IsUnimodal(c.vs, 0); got != c.want {
			t.Fatalf("IsUnimodal(%v) = %v", c.vs, got)
		}
	}
}

func TestIsUnimodalTolerance(t *testing.T) {
	// A tiny dip within tolerance should still count as unimodal.
	vs := []float64{1, 2, 1.999, 2.5, 1}
	if IsUnimodal(vs, 0) {
		t.Fatal("dip should fail with zero tolerance")
	}
	if !IsUnimodal(vs, 0.01) {
		t.Fatal("dip within tolerance should pass")
	}
}

func TestModeIndexBounds(t *testing.T) {
	// Very small b pushes the mode past the domain; it must clamp.
	p := UnimodalParams{A: 1, B: 1e-6, C: 0}
	if got := p.ModeIndex(10); got != 9 {
		t.Fatalf("mode index = %d, want clamp to 9", got)
	}
	p = UnimodalParams{A: 1, B: 1e6, C: 0}
	if got := p.ModeIndex(10); got != 0 {
		t.Fatalf("mode index = %d, want clamp to 0", got)
	}
}

func TestStringFormat(t *testing.T) {
	d := New("demo", []float64{0.2, 0.8})
	if got := d.String(); got != "demo(k=2, best=1@0.800)" {
		t.Fatalf("String() = %q", got)
	}
}

// ModeIndex returns the option index at which the unimodal curve peaks for
// a size-k domain: the closed form the shape tests check Best against.
func (p UnimodalParams) ModeIndex(k int) int {
	// Peak of a·x·e^(−bx) is at x = 1/b with x = i+1.
	i := int(math.Round(1/p.B)) - 1
	if i < 0 {
		i = 0
	}
	if i >= k {
		i = k - 1
	}
	return i
}

// IsUnimodal reports whether the value sequence rises to a single peak and
// then falls, within tolerance tol: the dataset shape the unimodal tests
// assert.
func IsUnimodal(values []float64, tol float64) bool {
	if len(values) < 3 {
		return true
	}
	peak := stats.ArgMax(values)
	for i := 1; i <= peak; i++ {
		if values[i] < values[i-1]-tol {
			return false
		}
	}
	for i := peak + 1; i < len(values); i++ {
		if values[i] > values[i-1]+tol {
			return false
		}
	}
	return true
}
