package bandit

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

func TestProblemArmsAndProbe(t *testing.T) {
	d := dist.New("x", []float64{0, 1, 0.5})
	p := NewProblem(d)
	if p.Arms() != 3 {
		t.Fatalf("arms = %d", p.Arms())
	}
	r := rng.New(1)
	if p.Probe(0, r) != 0 {
		t.Fatal("zero-value arm rewarded")
	}
	if p.Probe(1, r) != 1 {
		t.Fatal("one-value arm failed")
	}
}

func TestProblemAccounting(t *testing.T) {
	p := NewProblem(dist.New("x", []float64{0.5, 0.5}))
	r := rng.New(2)
	for i := 0; i < 10; i++ {
		p.Probe(0, r)
	}
	for i := 0; i < 3; i++ {
		p.Probe(1, r)
	}
	if p.Pulls(0) != 10 || p.Pulls(1) != 3 || p.TotalPulls() != 13 {
		t.Fatalf("pulls = %d/%d total %d", p.Pulls(0), p.Pulls(1), p.TotalPulls())
	}
}

func TestProblemConcurrentProbes(t *testing.T) {
	p := NewProblem(dist.New("x", []float64{0.5}))
	const goroutines, each = 16, 1000
	var wg sync.WaitGroup
	base := rng.New(3)
	streams := make([]*rng.RNG, goroutines)
	for i := range streams {
		streams[i] = base.Split()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(r *rng.RNG) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.Probe(0, r)
			}
		}(streams[g])
	}
	wg.Wait()
	if p.TotalPulls() != goroutines*each {
		t.Fatalf("total pulls = %d, want %d", p.TotalPulls(), goroutines*each)
	}
}

func TestProblemProbeFrequency(t *testing.T) {
	p := NewProblem(dist.New("x", []float64{0.7}))
	r := rng.New(4)
	const trials = 50000
	wins := 0.0
	for i := 0; i < trials; i++ {
		wins += p.Probe(0, r)
	}
	if got := wins / trials; math.Abs(got-0.7) > 0.01 {
		t.Fatalf("empirical reward rate %v, want ~0.7", got)
	}
}

func TestProblemAccuracyAndBest(t *testing.T) {
	p := NewProblem(dist.New("x", []float64{0.4, 0.8}))
	if p.Best() != 1 {
		t.Fatalf("best = %d", p.Best())
	}
	if acc := p.Accuracy(0); acc != 50 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestFuncOracle(t *testing.T) {
	o := &FuncOracle{K: 5, F: func(arm int, r *rng.RNG) Reward {
		if arm == 2 {
			return 1
		}
		return 0
	}}
	r := rng.New(5)
	if o.Arms() != 5 {
		t.Fatalf("arms = %d", o.Arms())
	}
	if o.Probe(2, r) != 1 || o.Probe(0, r) != 0 {
		t.Fatal("FuncOracle did not forward")
	}
	if o.TotalPulls() != 2 {
		t.Fatalf("total pulls = %d", o.TotalPulls())
	}
}
