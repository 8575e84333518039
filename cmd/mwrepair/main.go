// Command mwrepair runs the full MWRepair pipeline end to end on one
// repair scenario: generate (or load) the defective program and its test
// suite, precompute the safe-mutation pool (phase 1, embarrassingly
// parallel), then run the online MWU-guided search for a repair (phase 2)
// and print the patch.
//
// Usage:
//
//	mwrepair -scenario gzip-2009-09-26 [-algorithm standard]
//	         [-maxiter 2000] [-workers 8] [-seed 1]
//	         [-savepool pool.json] [-loadpool pool.json] [-store data/] [-v]
//	         [-trace run.jsonl] [-trace-sample 10] [-debug-addr localhost:6060]
//
// Scenarios are the named registry entries (see -list). -trace records
// the iteration-level event stream (internal/obs JSONL schema); the
// stream is seed-deterministic, byte-identical at any -workers count.
//
// -savepool writes the phase-1 pool as soon as phase 1 ends; -loadpool
// reads one back instead of building it (it must be for the scenario's
// program), and the run then repeats the saving run's phase 2 exactly.
//
// -store opens (or creates) a persistent evaluation store in the given
// data directory: pool precompute and the online phase reuse verdicts
// recorded by earlier runs over the same suite, and record new ones for
// the next run. Warm-starting never changes the result — the patch and
// trace stay byte-identical to a cold run, only cheaper.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that every deferred cleanup (trace
// flush, store close) runs before the process exits.
func run() int {
	def := core.Job{}.WithDefaults()
	var (
		name     = flag.String("scenario", "lighttpd-1806-1807", "registry scenario name")
		list     = flag.Bool("list", false, "list available scenarios and exit")
		alg      = flag.String("algorithm", def.Algorithm, "MWU realization: standard | distributed | slate | optimistic | congestion")
		maxIter  = flag.Int("maxiter", def.MaxIter, "online phase iteration limit (0 = default)")
		workers  = flag.Int("workers", def.Workers, "parallel workers for pool build and probes")
		seed     = flag.Uint64("seed", def.Seed, "random seed (0 = default)")
		savePool = flag.String("savepool", "", "write the phase-1 pool to this file")
		loadPool = flag.String("loadpool", "", "read a previously saved pool instead of precomputing")
		storeDir = flag.String("store", "", "persistent evaluation-store data directory (warm-starts this run, records for the next)")
		verbose  = flag.Bool("v", false, "print the defective program and the repaired program")

		faultRate = flag.Float64("faultrate", 0, "inject probe faults at this base rate (0 = off)")
		managed   = flag.Bool("managed", false, "arm default timeout/retry/hedge policies against injected faults")
		cutoff    = flag.Int("cutoff", 0, "straggler cutoff in virtual ticks (0 = wait stragglers out)")
		timeout   = flag.Duration("timeout", 0, "cancel the repair after this wall-clock budget (0 = none)")
	)
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	cliutil.Rate01("mwrepair", "faultrate", *faultRate)
	cliutil.NonNegative("mwrepair", "cutoff", *cutoff)
	cliutil.NonNegative("mwrepair", "maxiter", *maxIter)
	cliutil.Positive("mwrepair", "workers", *workers)
	cliutil.NonNegativeDuration("mwrepair", "timeout", *timeout)
	obsFlags.Validate("mwrepair")
	// Checked here, as the daemon checks it at admission, so that a bad
	// name fails before phase 1 builds the pool.
	if a := cmp.Or(*alg, def.Algorithm); !slices.Contains(mwu.Names, a) {
		cliutil.Fatalf("mwrepair", "unknown -algorithm %q (want one of %v)", a, mwu.Names)
	}

	if *list {
		for _, p := range scenario.Registry {
			extra := ""
			if p.DriftSteps > 0 {
				extra = fmt.Sprintf("  drift=%dx%d/%s", p.DriftSteps, p.DriftInterval, p.DriftKind)
			}
			if p.CongestionLambda > 0 {
				extra += fmt.Sprintf("  lambda=%g", p.CongestionLambda)
			}
			fmt.Printf("%-20s family=%-12s options=%-5d blocks=%d%s\n", p.Name, p.FamilyName(), p.Options, p.Blocks, extra)
		}
		return 0
	}

	prof, err := scenario.ByName(*name)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("scenario %s: generating program and test suite...\n", prof.Name)
	sc := scenario.Generate(prof)
	fmt.Printf("  program: %d statements, suite: %d positive + %d negative tests\n",
		sc.Program.Len(), len(sc.Suite.Positive), len(sc.Suite.Negative))
	if *verbose {
		fmt.Println("--- defective program ---")
		fmt.Print(sc.Program.String())
		fmt.Println("-------------------------")
	}

	job := core.Job{
		Scenario:  sc,
		Algorithm: *alg,
		Seed:      *seed,
		MaxIter:   *maxIter,
		Workers:   *workers,
		FaultRate: *faultRate,
		Managed:   *managed,
		Cutoff:    *cutoff,
	}
	var obsCleanup func()
	job.Trace, job.Registry, obsCleanup = obsFlags.Setup("mwrepair", job.Label())
	defer obsCleanup()

	if *storeDir != "" {
		if job.Store, err = store.Open(store.Options{Dir: *storeDir}); err != nil {
			return fail(err)
		}
		defer func() {
			if err := job.Store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mwrepair: store close:", err)
			}
		}()
		ss := job.Store.Stats()
		fmt.Printf("store %s: %d eval records, %d pack(s)\n", *storeDir, ss.EvalRecords, ss.Packs)
	}

	// SIGINT/SIGTERM cancels the run context: phase 1 stops at a batch
	// boundary, phase 2 returns the best-so-far state, and the deferred
	// cleanup still flushes the trace. A second signal kills immediately.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Phase 1, saved before phase 2 can fail or be interrupted. RunJob
	// checks a loaded pool against the scenario.
	t0 := time.Now()
	if *loadPool != "" {
		f, err := os.Open(*loadPool)
		if err == nil {
			job.Pool, err = pool.Load(f)
			f.Close()
		}
		if err != nil {
			return fail(err)
		}
		fmt.Printf("phase 1: loaded pool of %d safe mutations from %s\n", job.Pool.Size(), *loadPool)
	} else {
		job.Pool = core.BuildPool(ctx, job)
		ps := job.Pool.Stats()
		fmt.Printf("phase 1: precomputed %d safe mutations in %v (%d candidates evaluated, %.0f%% safe)\n",
			job.Pool.Size(), time.Since(t0).Round(time.Millisecond), ps.Evaluated, 100*ps.SafeRate())
		if ps.StoreHits > 0 {
			fmt.Printf("  store: %d warm verdicts reused\n", ps.StoreHits)
		}
	}
	if *savePool != "" {
		f, err := os.Create(*savePool)
		if err == nil {
			err = job.Pool.Save(f)
			f.Close()
		}
		if err != nil {
			return fail(err)
		}
		fmt.Printf("  pool saved to %s\n", *savePool)
	}
	if job.Pool.Size() == 0 && ctx.Err() != nil {
		fmt.Println("phase 1: CANCELLED before any safe mutation was found")
		return 1
	}
	if job.Pool.Size() > 0 && sc.Drift.Len() > 0 {
		fmt.Printf("  drift schedule: %d steps (%s), first at %d probes\n",
			sc.Drift.Len(), prof.DriftKind, sc.Drift.Steps[0].AfterProbes)
	}

	t0 = time.Now()
	_, res, err := core.RunJob(ctx, job)
	elapsed := time.Since(t0).Round(time.Millisecond)
	if err != nil {
		return fail(err)
	}

	if res.Faults.Any() {
		fmt.Printf("  faults: %s (degraded: %v)\n", res.Faults.String(), res.Degraded)
	}
	switch {
	case res.Repaired:
		fmt.Printf("phase 2 (%s MWU): REPAIRED in %d iterations × %d agents (%d probes, %d fitness evals, %v)\n",
			*alg, res.Iterations, res.Agents, res.Probes, res.FitnessEvals, elapsed)
	case res.Cancelled:
		fmt.Printf("phase 2: CANCELLED before a repair in %d iterations (%d probes, %d fitness evals, %v)\n",
			res.Iterations, res.Probes, res.FitnessEvals, elapsed)
	default:
		fmt.Printf("phase 2: NO repair found in %d iterations (%d probes, %d fitness evals, %v)\n",
			res.Iterations, res.Probes, res.FitnessEvals, elapsed)
	}
	fmt.Printf("  cache: %d hits\n", res.CacheHits)
	if res.WarmEntries > 0 {
		fmt.Printf("  store: %d entries warm-started, %d warm hits\n", res.WarmEntries, res.WarmHits)
	}
	if res.DriftSteps > 0 {
		fmt.Printf("  drift: %d suite change(s) applied mid-run\n", res.DriftSteps)
	}
	if res.CongestionCost > 0 {
		fmt.Printf("  congestion: total probe cost %.0f (lambda=%g), max arm load %d\n",
			res.CongestionCost, prof.CongestionLambda, res.MaxLoad)
	}
	if !res.Repaired {
		return 1
	}
	fmt.Printf("  learned composition size x* = %d\n", res.LearnedArm)
	fmt.Printf("  patch (%d mutations):\n", len(res.Patch))
	for _, m := range res.Patch {
		fmt.Printf("    %-16s  %s\n", m.ID(), describeMutation(sc, m))
	}
	if *verbose {
		fmt.Println("--- repaired program ---")
		fmt.Print(res.Program.String())
		fmt.Println("------------------------")
	}
	return 0
}

func describeMutation(sc *scenario.Scenario, m mutation.Mutation) string {
	target := sc.Program.Stmts[m.At].String()
	switch m.Op {
	case mutation.Delete:
		return fmt.Sprintf("delete %q", target)
	case mutation.Replace:
		return fmt.Sprintf("replace %q with %q", target, sc.Program.Stmts[m.From].String())
	case mutation.Insert:
		return fmt.Sprintf("insert %q after %q", sc.Program.Stmts[m.From].String(), target)
	case mutation.Swap:
		return fmt.Sprintf("swap %q and %q", target, sc.Program.Stmts[m.From].String())
	default:
		return ""
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mwrepair:", err)
	return 1
}
