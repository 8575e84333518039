package congestion

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestMaxLoadBasics(t *testing.T) {
	r := rng.New(1)
	if got := MaxLoad(0, 5, r); got != 0 {
		t.Fatalf("MaxLoad(0 balls) = %d", got)
	}
	if got := MaxLoad(10, 1, r); got != 10 {
		t.Fatalf("MaxLoad(1 bin) = %d, want all balls", got)
	}
	m := MaxLoad(100, 100, r)
	if m < 1 || m > 100 {
		t.Fatalf("MaxLoad out of range: %d", m)
	}
}

func TestMaxLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxLoad(5, 0, rng.New(1))
}

func TestMaxLoadAtLeastAverage(t *testing.T) {
	r := rng.New(2)
	// Pigeonhole: max load >= ceil(n/bins).
	for i := 0; i < 20; i++ {
		if m := MaxLoad(1000, 10, r); m < 100 {
			t.Fatalf("max load %d below average 100", m)
		}
	}
}

func TestBallsIntoBinsBoundGrowth(t *testing.T) {
	// The bound grows, but much slower than n.
	b1k := BallsIntoBinsBound(1000)
	b1m := BallsIntoBinsBound(1000000)
	if b1m <= b1k {
		t.Fatal("bound should grow with n")
	}
	if b1m > 20 {
		t.Fatalf("bound at n=1e6 is %v, should be ~7", b1m)
	}
}

func TestBallsIntoBinsBoundSmallN(t *testing.T) {
	for n := 0; n < 3; n++ {
		if got := BallsIntoBinsBound(n); got != float64(n) {
			t.Fatalf("bound(%d) = %v", n, got)
		}
	}
}

func TestMaxLoadTracksBound(t *testing.T) {
	// For n balls into n bins the empirical max load should be within a
	// small constant factor of ln n / ln ln n.
	r := rng.New(3)
	for _, n := range []int{100, 1000, 10000} {
		mean, _ := Profile(n, 30, r)
		bound := BallsIntoBinsBound(n)
		if mean < bound*0.5 || mean > bound*4 {
			t.Fatalf("n=%d: mean max load %v vs bound %v", n, mean, bound)
		}
	}
}

func TestCongestionSeparation(t *testing.T) {
	// The crux of Table I: Distributed congestion is exponentially smaller
	// than Standard/Slate congestion at scale.
	r := rng.New(4)
	n := 10000
	mean, _ := Profile(n, 10, r)
	if int(mean) >= StandardCongestion(n)/100 {
		t.Fatalf("distributed congestion %v not far below standard %d", mean, StandardCongestion(n))
	}
}

func TestExceedanceRateHighProbabilityBound(t *testing.T) {
	// With a generous constant the bound should hold in almost all trials.
	r := rng.New(5)
	rate := ExceedanceRate(1000, 200, 3, r)
	if rate > 0.05 {
		t.Fatalf("exceedance rate %v too high", rate)
	}
}

func TestExceedanceRateTightConstantFails(t *testing.T) {
	// With constant far below 1 the "bound" should be exceeded often —
	// guards against a vacuous test above.
	r := rng.New(6)
	rate := ExceedanceRate(1000, 50, 0.2, r)
	if rate < 0.9 {
		t.Fatalf("exceedance rate %v unexpectedly low for tiny constant", rate)
	}
}

func TestProfileDeterministic(t *testing.T) {
	m1, x1 := Profile(500, 20, rng.New(7))
	m2, x2 := Profile(500, 20, rng.New(7))
	if m1 != m2 || x1 != x2 {
		t.Fatal("Profile not deterministic under seed")
	}
}

func TestProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Profile(10, 0, rng.New(1))
}

func TestBoundMonotoneOverDecades(t *testing.T) {
	prev := 0.0
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		b := BallsIntoBinsBound(n)
		if b <= prev {
			t.Fatalf("bound not increasing at n=%d: %v <= %v", n, b, prev)
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("bound degenerate at n=%d", n)
		}
		prev = b
	}
}

func BenchmarkMaxLoad10000(b *testing.B) {
	r := rng.New(9)
	for i := 0; i < b.N; i++ {
		_ = MaxLoad(10000, 10000, r)
	}
}

func TestLoadsInto(t *testing.T) {
	loads := []int{7, 7, 7, 7} // stale contents must be cleared
	if got := LoadsInto(loads, []int{0, 0, 2, 0}); got != 3 {
		t.Fatalf("max load = %d, want 3", got)
	}
	want := []int{3, 0, 1, 0}
	for i := range want {
		if loads[i] != want[i] {
			t.Fatalf("loads = %v, want %v", loads, want)
		}
	}
	if got := LoadsInto(loads, nil); got != 0 {
		t.Fatalf("empty assignment max load = %d", got)
	}
	for i, l := range loads {
		if l != 0 {
			t.Fatalf("loads[%d] = %d after empty assignment", i, l)
		}
	}
}

func TestLoadsAllocates(t *testing.T) {
	loads := make([]int, 5)
	maxLoad := LoadsInto(loads, []int{1, 1, 3})
	if maxLoad != 2 {
		t.Fatalf("max load = %d, want 2", maxLoad)
	}
	want := []int{0, 2, 0, 1, 0}
	for i := range want {
		if loads[i] != want[i] {
			t.Fatalf("loads = %v, want %v", loads, want)
		}
	}
}

func TestSharedGain(t *testing.T) {
	// A failure costs −1 regardless of load.
	for _, load := range []int{1, 5, 100} {
		if g := SharedGain(0, load, 0.25); g != -1 {
			t.Fatalf("failure gain at load %d = %v, want -1", load, g)
		}
	}
	// Load 1 (or a defensive load 0) passes the reward through unshared.
	if g := SharedGain(1, 1, 0.25); g != 1 {
		t.Fatalf("unshared gain = %v, want 1", g)
	}
	if g := SharedGain(1, 0, 0.25); g != 1 {
		t.Fatalf("load-0 gain = %v, want 1", g)
	}
	// Load ℓ divides by 1 + λ(ℓ−1), strictly decreasing in ℓ.
	if g := SharedGain(1, 3, 0.5); math.Abs(g-0.5) > 1e-15 {
		t.Fatalf("shared gain = %v, want 0.5", g)
	}
	prev := math.Inf(1)
	for load := 1; load <= 8; load++ {
		g := SharedGain(1, load, 0.25)
		if g >= prev {
			t.Fatalf("gain not decreasing in load: load %d gain %v, prev %v", load, g, prev)
		}
		prev = g
	}
}

// StandardCongestion is the per-iteration congestion of Standard and
// Slate with n agents: every agent reports to the weight-vector holder.
func StandardCongestion(n int) int { return n }

// ExceedanceRate returns the fraction of trials in which the maximum load
// exceeded c times the BallsIntoBinsBound. Table I's starred bounds hold
// with probability at least 1 − 1/n; the exceedance tests check that the
// rate at a suitable constant is consistent with that.
func ExceedanceRate(n, trials int, c float64, r *rng.RNG) float64 {
	bound := c * BallsIntoBinsBound(n)
	exceed := 0
	for i := 0; i < trials; i++ {
		if float64(MaxLoad(n, n, r)) > bound {
			exceed++
		}
	}
	return float64(exceed) / float64(trials)
}

// Profile measures the empirical distribution of MaxLoad over the given
// number of trials, returning mean and observed maximum: the reference
// the tests use to check that Distributed congestion tracks
// Θ(ln n / ln ln n) while Standard/Slate congestion tracks Θ(n).
func Profile(n, trials int, r *rng.RNG) (mean float64, max int) {
	if trials <= 0 {
		panic("congestion: trials must be positive")
	}
	sum := 0
	for i := 0; i < trials; i++ {
		m := MaxLoad(n, n, r)
		sum += m
		if m > max {
			max = m
		}
	}
	return float64(sum) / float64(trials), max
}
