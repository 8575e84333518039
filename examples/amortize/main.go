// Amortize: the pool lifecycle across a program's maintenance history
// (Sec. III-C of the paper).
//
// The precompute phase is a one-time cost amortized over many bugs: the
// pool is built when the software ships, reused for each new defect, and
// updated incrementally when the regression suite grows — when a repaired
// bug's failing test joins the suite, the pool is rerun on the new tests
// rather than rebuilt from scratch.
//
//	go run ./examples/amortize
package main

import (
	"context"

	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

func main() {
	prof := scenario.MustByName("libtiff-2005-12-14")
	sc := scenario.Generate(prof)
	seed := rng.New(11)

	// Ship time: build the pool once.
	t0 := time.Now()
	pl := sc.BuildPool(8, seed.Split())
	buildCost := time.Since(t0)
	fmt.Printf("ship time: precomputed %d safe mutations in %v\n", pl.Size(), buildCost.Round(time.Millisecond))

	// Bug arrives: run the online phase against the existing pool.
	t0 = time.Now()
	res, err := core.RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, seed.Split(), core.Config{
		MaxIter: 2000, Workers: 8, MaxX: prof.Options,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bug #1: repaired=%v in %d cycles / %v (no pool rebuild needed)\n",
		res.Repaired, res.Iterations, time.Since(t0).Round(time.Millisecond))

	// The program evolves: new regression tests are added over time,
	// locking in currently-observed behaviour on fresh inputs.
	grown := &testsuite.Suite{Positive: append([]testsuite.Test{}, sc.Suite.Positive...)}
	program := lang.Compile(sc.Program)
	for i := 0; i < 4; i++ {
		// New in-distribution inputs; expected outputs are the program's
		// current behaviour (exactly how regression tests accrete).
		base := sc.Suite.Positive[i%len(sc.Suite.Positive)]
		input := []int64{(base.Input[0] + int64(i) + 1) % 999, (base.Input[1] + 37) % 999}
		res := program.Run(lang.Options{Input: input})
		if res.Err != nil {
			panic(res.Err)
		}
		grown.Positive = append(grown.Positive, testsuite.Test{
			Name: fmt.Sprintf("new%d", i), Input: input, Want: res.Output, MaxSteps: 50000,
		})
	}
	fmt.Printf("suite grows: %d -> %d regression tests\n", len(sc.Suite.Positive), len(grown.Positive))

	// Incremental update: rerun the existing pool against the grown suite
	// instead of rebuilding it. Mutations whose damage the old suite
	// missed drop out; the rest of the investment carries forward.
	t0 = time.Now()
	before := pl.Size()
	removed := pl.Revalidate(grown, 8)
	fmt.Printf("incremental revalidation: %v, %d mutations dropped, %d retained (full rebuild would cost ~%v)\n",
		time.Since(t0).Round(time.Millisecond), removed, pl.Size(), buildCost.Round(time.Millisecond))
	fmt.Printf("pool retention: %.0f%%\n", 100*float64(pl.Size())/float64(before))

	// And the retained pool still contains what the NEXT bug needs: the
	// online phase runs immediately, no precompute in the loop.
	res2, err := core.RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, seed.Split(), core.Config{
		MaxIter: 2000, Workers: 8, MaxX: prof.Options,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bug #2 (same defect class, fresh search): repaired=%v in %d cycles using the retained pool\n",
		res2.Repaired, res2.Iterations)
}
