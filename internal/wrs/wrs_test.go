package wrs

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// testWeights builds a deterministic, irregular weight vector with a few
// zero-weight holes — the shape the MWU weight vectors take mid-run.
func testWeights(k int, seed uint64) []float64 {
	r := rng.New(seed)
	w := make([]float64, k)
	for i := range w {
		w[i] = r.Float64() * float64(1+i%7)
		if i%13 == 5 {
			w[i] = 0
		}
	}
	return w
}

// chiSquared checks observed counts against the expected proportions of w
// with a generous threshold: the 99.9th percentile of χ² grows like
// df + 4.9·√df for the df sizes used here.
func chiSquared(t *testing.T, counts []int, w []float64, draws int) {
	t.Helper()
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	chi2 := 0.0
	df := 0
	for i, wi := range w {
		exp := float64(draws) * wi / total
		if exp == 0 {
			if counts[i] != 0 {
				t.Fatalf("zero-weight option %d drawn %d times", i, counts[i])
			}
			continue
		}
		df++
		d := float64(counts[i]) - exp
		chi2 += d * d / exp
	}
	df--
	limit := float64(df) + 4.9*math.Sqrt(float64(df)) + 10
	if chi2 > limit {
		t.Fatalf("chi-squared %.1f exceeds %.1f (df=%d): sampler does not match the reference distribution", chi2, limit, df)
	}
}

// mustFenwick and mustAlias build test samplers over weights known to be
// valid.
func mustFenwick(t testing.TB, w []float64) *Fenwick {
	t.Helper()
	f, err := NewFenwick(w)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustAlias(t testing.TB, w []float64) *Alias {
	t.Helper()
	a, err := NewAlias(w)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFenwickMatchesNaiveSums(t *testing.T) {
	w := testWeights(100, 1)
	f := mustFenwick(t, w)
	if f.Len() != 100 {
		t.Fatalf("len = %d", f.Len())
	}
	acc := 0.0
	for i, wi := range w {
		if got := f.Weight(i); math.Abs(got-wi) > 1e-12 {
			t.Fatalf("weight[%d] = %v, want %v", i, got, wi)
		}
		acc += wi
	}
	if got := f.Total(); math.Abs(got-acc) > 1e-9 {
		t.Fatalf("total = %v, want %v", got, acc)
	}
}

func TestFenwickAddSetTracksVector(t *testing.T) {
	w := testWeights(37, 2)
	f := mustFenwick(t, w)
	r := rng.New(3)
	for step := 0; step < 1000; step++ {
		i := r.Intn(len(w))
		if step%2 == 0 {
			delta := r.Float64() - 0.3
			if w[i]+delta < 0 {
				delta = -w[i]
			}
			w[i] += delta
			f.Add(i, delta)
		} else {
			v := r.Float64() * 3
			f.Add(i, v-w[i])
			w[i] = v
		}
	}
	for i, wi := range w {
		if math.Abs(f.Weight(i)-wi) > 1e-9 {
			t.Fatalf("after updates weight[%d] = %v, want %v", i, f.Weight(i), wi)
		}
	}
	truth := 0.0
	for _, wi := range w {
		truth += wi
	}
	if math.Abs(f.Total()-truth) > 1e-9*math.Max(1, truth) {
		t.Fatalf("total drifted: %v vs %v", f.Total(), truth)
	}
}

// TestFenwickDrawMatchesCategorical drives Fenwick and rng.Categorical
// from identical streams: both consume one Float64 per draw, and the
// prefix-descent picks the same bucket as the linear scan except when the
// variate lands within ulps of a bucket boundary (probability ~k·2⁻⁵³), so
// on fixed seeds the index sequences agree exactly.
func TestFenwickDrawMatchesCategorical(t *testing.T) {
	for _, k := range []int{1, 2, 3, 17, 64, 1000} {
		w := testWeights(k, uint64(10+k))
		f := mustFenwick(t, w)
		ra, rb := rng.New(99), rng.New(99)
		for d := 0; d < 5000; d++ {
			want := ra.Categorical(w)
			got := f.Draw(rb)
			if got != want {
				t.Fatalf("k=%d draw %d: fenwick %d, categorical %d", k, d, got, want)
			}
		}
	}
}

func TestFenwickDrawDistribution(t *testing.T) {
	w := testWeights(40, 4)
	f := mustFenwick(t, w)
	r := rng.New(5)
	const draws = 200000
	counts := make([]int, len(w))
	for d := 0; d < draws; d++ {
		counts[f.Draw(r)]++
	}
	chiSquared(t, counts, w, draws)
}

func TestFenwickReloadDiscardsDrift(t *testing.T) {
	w := testWeights(64, 6)
	f := mustFenwick(t, w)
	// Pile on tiny increments that accumulate associativity drift.
	for step := 0; step < 100000; step++ {
		i := step % len(w)
		f.Add(i, 1e-9)
		w[i] += 1e-9
	}
	if err := f.Reload(w); err != nil {
		t.Fatal(err)
	}
	acc := 0.0
	for _, wi := range w {
		acc += wi
	}
	// Exact rebuild: totals agree to the ulp of the tree association.
	if f.Total() != mustFenwick(t, w).Total() {
		t.Fatal("Reload is not an exact rebuild")
	}
	if math.Abs(f.Total()-acc) > 1e-9*acc {
		t.Fatalf("reloaded total %v far from %v", f.Total(), acc)
	}
}

func TestFenwickZeroWeightNeverDrawn(t *testing.T) {
	w := []float64{0, 3, 0, 0, 2, 0}
	f := mustFenwick(t, w)
	r := rng.New(7)
	for d := 0; d < 20000; d++ {
		got := f.Draw(r)
		if got != 1 && got != 4 {
			t.Fatalf("drew zero-weight option %d", got)
		}
	}
}

func TestFenwickPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero total draw": func() { mustFenwick(t, []float64{0, 0}).Draw(rng.New(1)) },
		"empty draw":      func() { mustFenwick(t, nil).Draw(rng.New(1)) },
		"infinite draw":   func() { mustFenwick(t, []float64{1, math.Inf(1)}).Draw(rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAliasDistribution(t *testing.T) {
	for _, k := range []int{1, 2, 5, 40, 257} {
		w := testWeights(k, uint64(20+k))
		a := mustAlias(t, w)
		if a.Len() != k {
			t.Fatalf("len = %d", a.Len())
		}
		r := rng.New(uint64(30 + k))
		draws := 100000
		counts := make([]int, k)
		for d := 0; d < draws; d++ {
			counts[a.Draw(r)]++
		}
		chiSquared(t, counts, w, draws)
	}
}

func TestAliasSingleton(t *testing.T) {
	a := mustAlias(t, []float64{2.5})
	r := rng.New(1)
	for d := 0; d < 100; d++ {
		if a.Draw(r) != 0 {
			t.Fatal("singleton draw != 0")
		}
	}
}

// TestDrawPathsMatchCategorical is the differential check: every draw
// path — Fenwick, Alias and a ConcurrentAlias stream — is compared with
// rng.Categorical on the same weights by a two-sample chi-squared test,
// and must never draw a zero-weight option.
func TestDrawPathsMatchCategorical(t *testing.T) {
	uniform := make([]float64, 32)
	for i := range uniform {
		uniform[i] = 1
	}
	sets := map[string][]float64{
		"uniform": uniform,
		"random":  testWeights(64, 80),
		"zeros":   {0, 3, 0, 0, 2, 0, 1e-3, 0, 5},
		"extreme": {1e-300, 0, 1e-150, 1, 1e150, 2e299, 1e300, 0, 5e299, 1e-300},
	}
	paths := map[string]func(w []float64) func() int{
		"fenwick": func(w []float64) func() int {
			f, r := mustFenwick(t, w), rng.New(81)
			return func() int { return f.Draw(r) }
		},
		"alias": func(w []float64) func() int {
			a, r := mustAlias(t, w), rng.New(82)
			return func() int { return a.Draw(r) }
		},
		"concurrent-alias": func(w []float64) func() int {
			c := NewConcurrentAlias(rng.New(83), 2)
			if err := c.Reload(w); err != nil {
				t.Fatal(err)
			}
			return c.Stream(1).Draw
		},
	}
	const draws = 100000
	for set, w := range sets {
		ref := rng.New(84)
		want := make([]int, len(w))
		for d := 0; d < draws; d++ {
			want[ref.Categorical(w)]++
		}
		for path, mk := range paths {
			draw := mk(w)
			got := make([]int, len(w))
			for d := 0; d < draws; d++ {
				got[draw()]++
			}
			// Equal sample sizes: χ² = Σ (a−b)²/(a+b) over occupied bins.
			chi2, df := 0.0, -1
			for i := range w {
				if w[i] == 0 && got[i] != 0 {
					t.Fatalf("%s/%s: zero-weight option %d drawn %d times", set, path, i, got[i])
				}
				if n := got[i] + want[i]; n > 0 {
					d := float64(got[i] - want[i])
					chi2 += d * d / float64(n)
					df++
				}
			}
			if limit := float64(df) + 4.9*math.Sqrt(float64(df)) + 10; chi2 > limit {
				t.Errorf("%s/%s: chi-squared %.1f exceeds %.1f (df=%d) against rng.Categorical", set, path, chi2, limit, df)
			}
		}
	}
}
