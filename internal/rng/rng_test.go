package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("sequence diverged at %d: %d != %d", i, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children from successive splits must differ from each other and from
	// the parent's continued stream.
	seen := map[uint64]string{}
	record := func(name string, r *RNG) {
		for i := 0; i < 50; i++ {
			v := r.Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("stream %s collided with %s on value %d", name, prev, v)
			}
			seen[v] = name
		}
	}
	record("c1", c1)
	record("c2", c2)
	record("parent", parent)
}

func TestSplitReproducible(t *testing.T) {
	mk := func() []uint64 {
		p := New(99)
		c := p.Split()
		out := make([]uint64, 20)
		for i := range out {
			out[i] = c.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split streams not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bool(%v) frequency %v", p, got)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(29)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential variate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		if len(p) != n {
			t.Fatalf("Shuffle(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Shuffle(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(37)
	for _, tc := range []struct{ n, m int }{{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 37}} {
		s := r.SampleWithoutReplacement(tc.n, tc.m)
		if len(s) != tc.m {
			t.Fatalf("sample(%d,%d) length %d", tc.n, tc.m, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("sample(%d,%d) invalid: %v", tc.n, tc.m, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element of [0,n) should appear in an (n,m) sample with
	// probability m/n.
	r := New(41)
	const n, m, trials = 8, 3, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(n, m) {
			counts[v]++
		}
	}
	want := float64(trials) * m / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("element %d appeared %d times, want ~%v", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestCategoricalRespectWeights(t *testing.T) {
	r := New(43)
	w := []float64{1, 0, 3}
	const trials = 60000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight option selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %v, want ~3", ratio)
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero total weight")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestCategoricalSingleton(t *testing.T) {
	r := New(47)
	for i := 0; i < 100; i++ {
		if r.Categorical([]float64{2.5}) != 0 {
			t.Fatal("singleton categorical must return 0")
		}
	}
}

// Property: Intn(n) is always within range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sampling without replacement always yields distinct in-range values.
func TestQuickSampleDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%200 + 1
		m := int(mRaw) % (n + 1)
		s := New(seed).SampleWithoutReplacement(n, m)
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(s) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical Float64 streams.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkCategorical(b *testing.B) {
	r := New(1)
	w := make([]float64, 1024)
	for i := range w {
		w[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}
