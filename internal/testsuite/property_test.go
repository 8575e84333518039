package testsuite

import (
	"context"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/rng"
)

// TestRunnerRandomizedAgreesWithUncached is the property test of the
// cache: for seeded random mutants of sumSrc and a random mix of Eval,
// Safe and Outcome calls issued from 8 goroutines, every answer equals an
// uncached evaluation on a fresh runner, every call is exactly one
// evaluation or one cache hit, and no (program, level) pair is evaluated
// twice. Step bounds keep looping mutants cheap under -race; the negative
// test gets exactly the steps sumSrc needs, so a mutant that adds work to
// the loop is safe but no repair and all three verdict classes occur.
func TestRunnerRandomizedAgreesWithUncached(t *testing.T) {
	const (
		seeds      = 4
		mutants    = 32
		goroutines = 8
		calls      = 60
	)
	base := lang.MustParse(sumSrc)
	covered := make([]int, base.Len())
	for i := range covered {
		covered[i] = i
	}
	suite := sumSuite()
	for i := range suite.Positive {
		suite.Positive[i].MaxSteps = 2000
	}
	neg := &suite.Negative[0]
	neg.MaxSteps = lang.Compile(base).Run(lang.Options{Input: neg.Input}).Steps

	var classes [3]int // unsafe, safe but no repair, repair
	for seed := uint64(1); seed <= seeds; seed++ {
		r := rng.New(seed)
		programs := make([]*lang.Program, mutants)
		want := make([]Fitness, mutants)
		oracle := NewRunner(suite)
		for i := range programs {
			muts := make([]mutation.Mutation, 1+r.Intn(3))
			for j := range muts {
				muts[j] = mutation.Random(base, covered, r)
			}
			programs[i] = mutation.Apply(base, muts)
			want[i] = oracle.EvalNoCache(programs[i])
			switch {
			case want[i].Repair():
				classes[2]++
			case want[i].Safe():
				classes[1]++
			default:
				classes[0]++
			}
		}

		// Each goroutine's call plan is drawn up front so the mix is a
		// function of the seed; only the interleaving is left to the
		// scheduler.
		type call struct {
			prog  int
			level uint8
		}
		plans := make([][]call, goroutines)
		requested := map[[2]uint64]bool{}
		for g := range plans {
			plans[g] = make([]call, calls)
			for i := range plans[g] {
				c := call{prog: r.Intn(mutants), level: levelSafe + uint8(r.Intn(3))}
				plans[g][i] = c
				requested[[2]uint64{programKey(programs[c.prog]), uint64(c.level)}] = true
			}
		}

		runner := NewRunner(suite)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range plans {
			wg.Add(1)
			go func(plan []call) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				<-start
				for _, c := range plan {
					p, f := programs[c.prog].Clone(), want[c.prog]
					switch c.level {
					case levelSafe:
						if got := runner.Safe(p); got != f.Safe() {
							t.Errorf("seed %d program %d: Safe = %v, want %v", seed, c.prog, got, f.Safe())
						}
					case levelOutcome:
						if safe, repair := runner.Outcome(p); safe != f.Safe() || repair != f.Repair() {
							t.Errorf("seed %d program %d: Outcome = (%v,%v), want (%v,%v)",
								seed, c.prog, safe, repair, f.Safe(), f.Repair())
						}
					case levelFitness:
						if got := runner.Eval(ctx, p); got != f {
							t.Errorf("seed %d program %d: Eval = %v, want %v", seed, c.prog, got, f)
						}
					}
				}
			}(plans[g])
		}
		close(start)
		wg.Wait()

		if got := runner.Evals() + runner.CacheHits(); got != goroutines*calls {
			t.Errorf("seed %d: evals %d + hits %d = %d, want %d calls",
				seed, runner.Evals(), runner.CacheHits(), got, goroutines*calls)
		}
		if runner.Evals() > int64(len(requested)) {
			t.Errorf("seed %d: evals = %d, more than the %d distinct (program, level) pairs requested",
				seed, runner.Evals(), len(requested))
		}
	}
	if classes[0] == 0 || classes[1] == 0 || classes[2] == 0 {
		t.Fatalf("verdict classes (unsafe, safe, repair) = %v: the mutants no longer cover all three", classes)
	}
}
