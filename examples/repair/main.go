// Repair: the paper's headline application, end to end on a generated
// gzip-like defect scenario.
//
// Phase 1 precomputes a pool of individually safe mutations (parallel,
// one-time, reusable across bugs in the same program). Phase 2 runs the
// online MWU search over "how many pool mutations to compose per probe"
// and stops at the first composition that passes the full test suite.
//
//	go run ./examples/repair
package main

import (
	"context"

	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

func main() {
	prof := scenario.MustByName("libtiff-2005-12-14")
	fmt.Printf("generating scenario %s...\n", prof.Name)
	sc := scenario.Generate(prof)
	fmt.Printf("  defective program: %d statements\n", sc.Program.Len())
	fmt.Printf("  test suite: %d regression tests + %d bug-inducing test\n",
		len(sc.Suite.Positive), len(sc.Suite.Negative))

	seed := rng.New(7)

	// Phase 1: precompute the safe-mutation pool.
	t0 := time.Now()
	pl := sc.BuildPool(8, seed.Split())
	st := pl.Stats()
	fmt.Printf("phase 1: %d safe mutations in %v (%.0f%% of candidates were safe — the paper reports ≈30%% for C/Java)\n",
		pl.Size(), time.Since(t0).Round(time.Millisecond), 100*st.SafeRate())

	// Phase 2: online MWU-guided composition search.
	t0 = time.Now()
	res, err := core.RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, seed.Split(), core.Config{
		MaxIter: 2000,
		Workers: 8,
		MaxX:    prof.Options,
	})
	if err != nil {
		panic(err)
	}
	if !res.Repaired {
		fmt.Printf("no repair found in %d iterations\n", res.Iterations)
		return
	}
	fmt.Printf("phase 2: repaired in %d update cycles (%v), composing %d mutations per probe near the end\n",
		res.Iterations, time.Since(t0).Round(time.Millisecond), res.LearnedArm)
	fmt.Printf("  cost: %d probes, %d distinct test-suite runs (%d cache hits)\n",
		res.Probes, res.FitnessEvals, res.CacheHits)
	fmt.Println("  patch:")
	for _, m := range res.Patch {
		fmt.Printf("    %s\n", m.ID())
	}

	// Double-check the patch against a fresh runner.
	if f := testsuite.NewRunner(sc.Suite).Eval(context.Background(), res.Program); !f.Repair() {
		panic("patch verification failed")
	}
	fmt.Println("  patch independently verified: all tests pass")
}
