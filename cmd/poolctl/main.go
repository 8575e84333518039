// Command poolctl manages precomputed safe-mutation pools — the phase-1
// artifact of MWRepair (Sec. III-C of the paper). Pools are built once per
// program, amortized across bugs, and updated incrementally when the
// regression suite grows.
//
// Usage:
//
//	poolctl -build -scenario units -out units.pool [-target 1100] [-workers 8]
//	poolctl -build -scenario units -store data/            # record its verdicts in the store
//	poolctl -inspect -in units.pool
//	poolctl -revalidate -scenario units -in units.pool -out units2.pool
//	poolctl -fsck -store data/
//	poolctl -compact -store data/
//	poolctl -store-stats -store data/
//
// -revalidate reruns every pool mutation against the scenario's current
// suite and drops newly unsafe entries — the paper's incremental-update
// path for when a repaired bug's failing test joins the suite.
//
// With -store, -build warm-starts from the verdicts in the persistent
// evaluation store and records every suite verdict it pays for, so a
// later build of the same program runs no suites for candidates already
// judged; only -out saves the pool itself. -fsck audits every pack
// file's checksums, truncating a torn tail and quarantining corrupt packs
// (exit 1 when a pack had to be quarantined — records were lost).
// -compact rewrites the live records into a single pack, dropping
// superseded duplicates. -store-stats prints the store's stats as JSON.
//
// Exactly one action flag must be given; none or several is a usage
// error (exit 2, like any flag-validation failure). Runtime failures —
// I/O errors, unknown scenarios, corrupt pool files — exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/store"
)

func main() {
	def := core.Job{}.WithDefaults()
	var (
		build      = flag.Bool("build", false, "precompute a pool for -scenario")
		inspect    = flag.Bool("inspect", false, "print a pool summary")
		revalidate = flag.Bool("revalidate", false, "re-check a pool against the scenario's suite")
		fsck       = flag.Bool("fsck", false, "audit the store's pack checksums; quarantine corrupt packs")
		compact    = flag.Bool("compact", false, "rewrite the store's live records into a single pack")
		storeStats = flag.Bool("store-stats", false, "print the store's stats as JSON")

		scenarioFl = flag.String("scenario", "", "registry scenario name")
		in         = flag.String("in", "", "input pool file")
		out        = flag.String("out", "", "output pool file")
		storeDir   = flag.String("store", "", "persistent evaluation-store data directory")
		target     = flag.Int("target", 0, "pool size target (default: scenario profile)")
		workers    = flag.Int("workers", def.Workers, "parallel evaluation workers")
		seed       = flag.Uint64("seed", def.Seed, "random seed; -build seeds phase 1 as mwrepair does (0 = default)")
	)
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	cliutil.Positive("poolctl", "workers", *workers)
	cliutil.NonNegative("poolctl", "target", *target)
	obsFlags.Validate("poolctl")

	// Exactly one action. Zero or several is a flag-usage mistake, so it
	// takes the same exit-2 path as any other validation failure.
	actions := 0
	for _, a := range []bool{*build, *inspect, *revalidate, *fsck, *compact, *storeStats} {
		if a {
			actions++
		}
	}
	switch {
	case actions == 0:
		cliutil.Fatalf("poolctl", "no action: pass one of -build, -inspect, -revalidate, -fsck, -compact, -store-stats")
	case actions > 1:
		cliutil.Fatalf("poolctl", "conflicting actions: pass exactly one of -build, -inspect, -revalidate, -fsck, -compact, -store-stats")
	}
	if (*fsck || *compact || *storeStats) && *storeDir == "" {
		cliutil.Fatalf("poolctl", "-fsck, -compact and -store-stats require -store")
	}
	if *build && *out == "" && *storeDir == "" {
		cliutil.Fatalf("poolctl", "-build requires -out or -store (or both)")
	}
	if (*inspect || *revalidate) && *in == "" {
		cliutil.Fatalf("poolctl", "-inspect and -revalidate require -in")
	}

	tracer, reg, obsCleanup := obsFlags.Setup("poolctl", obs.RunID(*seed, "poolctl", *scenarioFl))
	defer obsCleanup()

	// SIGINT/SIGTERM stops a long pool build at a batch boundary and still
	// flushes the trace via the deferred cleanup.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir})
		fatalIf(err)
		defer func() { fatalIf(st.Close()) }()
	}

	switch {
	case *build:
		prof, err := scenario.ByName(*scenarioFl)
		fatalIf(err)
		if *target > 0 {
			prof.PoolTarget = *target
		}
		sc := scenario.Generate(prof)
		t0 := time.Now()
		pl := core.BuildPool(ctx, core.Job{Scenario: sc, Seed: *seed, Workers: *workers, Trace: tracer, Registry: reg, Store: st})
		ps := pl.Stats()
		fmt.Printf("built pool for %s: %d safe mutations in %v (%d candidates, %.0f%% safe, %d cache hits)\n",
			prof.Name, pl.Size(), time.Since(t0).Round(time.Millisecond), ps.Evaluated, 100*ps.SafeRate(),
			ps.CacheHits)
		if st != nil {
			fmt.Printf("recorded verdicts in store %s (%d reused from earlier runs)\n", *storeDir, ps.StoreHits)
		}
		if *out != "" {
			save(pl, *out)
		}

	case *inspect:
		pl := load(*in)
		ps := pl.Stats()
		fmt.Printf("pool: %d safe mutations (program: %d statements)\n", pl.Size(), pl.Original().Len())
		fmt.Printf("build stats: %d attempts, %d evaluated, %d duplicates skipped, safe rate %.0f%%\n",
			ps.Attempts, ps.Evaluated, ps.Duplicates, 100*ps.SafeRate())
		fmt.Printf("cache stats: %d hits\n", ps.CacheHits)
		byOp := map[mutation.Op]int{}
		for _, m := range pl.Mutations() {
			byOp[m.Op]++
		}
		for _, op := range mutation.Ops {
			fmt.Printf("  %-8s %d\n", op, byOp[op])
		}

	case *revalidate:
		prof, err := scenario.ByName(*scenarioFl)
		fatalIf(err)
		sc := scenario.Generate(prof)
		pl := load(*in)
		t0 := time.Now()
		removed := pl.Revalidate(sc.Suite, *workers)
		fmt.Printf("revalidated %s pool in %v: %d mutations dropped, %d remain\n",
			prof.Name, time.Since(t0).Round(time.Millisecond), removed, pl.Size())
		if *out != "" {
			save(pl, *out)
		}

	case *fsck:
		rep, err := st.Audit()
		fatalIf(err)
		fmt.Printf("fsck %s: %d pack(s) scanned, %d record(s) verified\n",
			*storeDir, rep.PacksScanned, rep.RecordsVerified)
		if rep.TailTruncated {
			fmt.Println("  torn tail truncated from the newest pack (a crash mid-append; no records lost)")
		}
		for _, q := range rep.Quarantined {
			fmt.Printf("  quarantined corrupt pack: %s\n", q)
		}
		if len(rep.Quarantined) > 0 {
			fatalIf(fmt.Errorf("%d pack(s) quarantined; their records were dropped from the index", len(rep.Quarantined)))
		}
		fmt.Println("  clean")

	case *compact:
		before := st.Stats()
		live, err := st.Compact()
		fatalIf(err)
		after := st.Stats()
		fmt.Printf("compacted %s: %d live record(s) kept, %d -> %d pack(s), %d -> %d bytes\n",
			*storeDir, live, before.Packs, after.Packs, before.Bytes, after.Bytes)

	case *storeStats:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(st.Stats()))
	}
}

func save(pl *pool.Pool, path string) {
	f, err := os.Create(path)
	fatalIf(err)
	defer f.Close()
	fatalIf(pl.Save(f))
	fmt.Printf("wrote %s\n", path)
}

func load(path string) *pool.Pool {
	f, err := os.Open(path)
	fatalIf(err)
	defer f.Close()
	pl, err := pool.Load(f)
	fatalIf(err)
	return pl
}

// fatalIf reports a runtime failure (I/O, corrupt input, unknown
// scenario) and exits 1 — distinct from flag-usage mistakes, which exit
// 2 via cliutil.Fatalf before any work starts.
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "poolctl:", err)
		os.Exit(1)
	}
}
