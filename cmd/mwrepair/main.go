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
// -store opens (or creates) a persistent evaluation store in the given
// data directory: pool precompute and the online phase reuse verdicts
// recorded by earlier runs over the same suite, and record new ones for
// the next run. Warm-starting never changes the result — the patch and
// trace stay byte-identical to a cold run, only cheaper.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() {
	var (
		name     = flag.String("scenario", "lighttpd-1806-1807", "registry scenario name")
		list     = flag.Bool("list", false, "list available scenarios and exit")
		alg      = flag.String("algorithm", "standard", "MWU realization: standard | distributed | slate | optimistic | congestion")
		maxIter  = flag.Int("maxiter", 2000, "online phase iteration limit")
		workers  = flag.Int("workers", 8, "parallel workers for pool build and probes")
		seed     = flag.Uint64("seed", 1, "random seed")
		savePool = flag.String("savepool", "", "write the precomputed pool to this file")
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
		return
	}

	prof, err := scenario.ByName(*name)
	if err != nil {
		fatal(err)
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

	tracer, reg, obsCleanup := obsFlags.Setup("mwrepair", obs.RunID(*seed, "mwrepair", prof.Name, *alg))
	defer obsCleanup()

	// The store must be flushed and snapshotted on every exit path;
	// os.Exit skips defers, so the manual exits below call closeStore
	// explicitly (it is idempotent) and fatal runs registered hooks.
	var st *store.Store
	closeStore := func() {
		if st == nil {
			return
		}
		s := st
		st = nil
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mwrepair: store close:", err)
		}
	}
	defer closeStore()
	if *storeDir != "" {
		var err error
		if st, err = store.Open(store.Options{Dir: *storeDir}); err != nil {
			fatal(err)
		}
		fatalHooks = append(fatalHooks, closeStore)
		ss := st.Stats()
		fmt.Printf("store %s: %d eval records, %d pool records, %d pack(s)\n",
			*storeDir, ss.EvalRecords, ss.PoolRecords, ss.Packs)
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

	r := rng.New(*seed)
	var pl *pool.Pool
	if *loadPool != "" {
		f, err := os.Open(*loadPool)
		if err != nil {
			fatal(err)
		}
		pl, err = pool.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("phase 1: loaded pool of %d safe mutations from %s\n", pl.Size(), *loadPool)
	} else {
		t0 := time.Now()
		pl = sc.BuildPoolStored(ctx, *workers, r.Split(), tracer, st)
		ps := pl.Stats()
		ps.Export(reg, "pool")
		fmt.Printf("phase 1: precomputed %d safe mutations in %v (%d candidates evaluated, %.0f%% safe)\n",
			pl.Size(), time.Since(t0).Round(time.Millisecond), ps.Evaluated, 100*ps.SafeRate())
		if ps.StoreHits > 0 {
			fmt.Printf("  store: %d warm verdicts reused\n", ps.StoreHits)
		}
	}
	if *savePool != "" {
		f, err := os.Create(*savePool)
		if err != nil {
			fatal(err)
		}
		if err := pl.Save(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("  pool saved to %s\n", *savePool)
	}

	if pl.Size() == 0 {
		if ctx.Err() != nil {
			fmt.Println("phase 1: CANCELLED before any safe mutation was found")
			closeStore()
			obsCleanup()
			os.Exit(1)
		}
		fatal(fmt.Errorf("empty mutation pool: no safe mutations found for %s", prof.Name))
	}

	cfg := core.Config{
		MaxIter:          *maxIter,
		Workers:          *workers,
		MaxX:             prof.Options,
		StragglerCutoff:  *cutoff,
		Trace:            tracer,
		Registry:         reg,
		Store:            st,
		Drift:            sc.Drift,
		CongestionLambda: prof.CongestionLambda,
	}
	if sc.Drift.Len() > 0 {
		fmt.Printf("  drift schedule: %d steps (%s), first at %d probes\n",
			sc.Drift.Len(), prof.DriftKind, sc.Drift.Steps[0].AfterProbes)
	}
	if *faultRate > 0 {
		cfg.Faults = faults.New(faults.Uniform(*seed, *faultRate))
	}
	if *managed {
		cfg.Policies = faults.DefaultPolicies()
	}

	t0 := time.Now()
	res, err := core.RepairWithAlgorithm(ctx, *alg, pl, sc.Suite, r.Split(), cfg)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0).Round(time.Millisecond)

	if res.Faults.Any() {
		fmt.Printf("  faults: %s (degraded: %v)\n", res.Faults.String(), res.Degraded)
	}
	familyStats := func() {
		if res.DriftSteps > 0 {
			fmt.Printf("  drift: %d suite change(s) applied mid-run\n", res.DriftSteps)
		}
		if res.CongestionCost > 0 {
			fmt.Printf("  congestion: total probe cost %.0f (lambda=%g), max arm load %d\n",
				res.CongestionCost, prof.CongestionLambda, res.MaxLoad)
		}
	}
	if !res.Repaired {
		state := "NO repair found"
		if res.Cancelled {
			state = "CANCELLED before a repair"
		}
		fmt.Printf("phase 2: %s in %d iterations (%d probes, %d fitness evals, %v)\n",
			state, res.Iterations, res.Probes, res.FitnessEvals, elapsed)
		fmt.Printf("  cache: %d hits (%d dedup-suppressed), %d contended cache-lock waits\n",
			res.CacheHits, res.DedupSuppressed, res.ShardContention)
		familyStats()
		closeStore()
		obsCleanup() // os.Exit skips defers; flush the trace first
		os.Exit(1)
	}
	fmt.Printf("phase 2 (%s MWU): REPAIRED in %d iterations × %d agents (%d probes, %d fitness evals, %v)\n",
		*alg, res.Iterations, res.Agents, res.Probes, res.FitnessEvals, elapsed)
	fmt.Printf("  cache: %d hits (%d dedup-suppressed), %d contended cache-lock waits\n",
		res.CacheHits, res.DedupSuppressed, res.ShardContention)
	if res.WarmEntries > 0 {
		fmt.Printf("  store: %d entries warm-started, %d warm hits\n", res.WarmEntries, res.WarmHits)
	}
	familyStats()
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

// fatalHooks run (newest first) before fatal exits; os.Exit skips
// deferred cleanups, so anything that must flush on a fatal error —
// today just the evaluation store — registers itself here.
var fatalHooks []func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mwrepair:", err)
	for i := len(fatalHooks) - 1; i >= 0; i-- {
		fatalHooks[i]()
	}
	os.Exit(1)
}
