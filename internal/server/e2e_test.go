package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestDaemonMatchesCLIByteForByte is the determinism guarantee of the
// daemon: a job with the same scenario/seed/config as a one-shot
// cmd/mwrepair invocation must produce a byte-identical JSONL trace and
// the identical patch. The reference side below replays cmd/mwrepair's
// main() sequence statement for statement (same RNG split order, same
// run label); any drift in the daemon's execute() breaks this test.
func TestDaemonMatchesCLIByteForByte(t *testing.T) {
	const (
		name    = "lighttpd-1806-1807"
		alg     = "standard"
		seed    = uint64(3)
		workers = 4
		maxIter = 500
	)
	dir := t.TempDir()

	// Reference: the CLI pipeline, in-process.
	cliTrace := filepath.Join(dir, "cli.jsonl")
	f, err := os.Create(cliTrace)
	if err != nil {
		t.Fatalf("creating reference trace: %v", err)
	}
	tracer := obs.New(obs.NewJSONL(f),
		obs.WithRun(obs.RunID(seed, "mwrepair", name, alg)),
		obs.WithSample(1))
	prof := scenario.MustByName(name)
	sc := scenario.Generate(prof)
	r := rng.New(seed)
	ctx := context.Background()
	pl := sc.BuildPoolStored(ctx, workers, r.Split(), tracer, nil)
	cfg := core.Config{MaxIter: maxIter, Workers: workers, MaxX: prof.Options, Trace: tracer}
	res, err := core.RepairWithAlgorithm(ctx, alg, pl, sc.Suite, r.Split(), cfg)
	if err != nil {
		t.Fatalf("reference repair: %v", err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("closing reference trace: %v", err)
	}

	// Daemon: same job through the manager.
	m := NewManager(Config{Workers: 1, QueueDepth: 2, TraceDir: dir})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(sctx)
	}()
	j, err := m.Submit(Spec{
		Scenario: name,
		Seed:     seed,
		Workers:  workers,
		MaxIter:  maxIter,
		Trace:    true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon job stuck in %s", j.State())
	}
	if j.State() != StateDone {
		t.Fatalf("daemon job finished %s, want done", j.State())
	}

	// Patches identical, mutation by mutation.
	jres := j.Result()
	if jres.Repaired != res.Repaired {
		t.Fatalf("repaired: daemon %v, CLI %v", jres.Repaired, res.Repaired)
	}
	if jres.Iterations != res.Iterations || jres.Probes != res.Probes {
		t.Fatalf("run shape diverged: daemon %d iter/%d probes, CLI %d/%d",
			jres.Iterations, jres.Probes, res.Iterations, res.Probes)
	}
	if len(jres.Patch) != len(res.Patch) {
		t.Fatalf("patch length: daemon %d, CLI %d", len(jres.Patch), len(res.Patch))
	}
	for i := range res.Patch {
		if jres.Patch[i] != res.Patch[i] {
			t.Fatalf("patch[%d]: daemon %+v, CLI %+v", i, jres.Patch[i], res.Patch[i])
		}
	}
	if res.Repaired && jres.Program != res.Program.String() {
		t.Fatal("repaired programs differ")
	}

	// Traces byte-identical.
	daemonTrace := j.TracePath()
	if daemonTrace == "" {
		t.Fatal("daemon job has no trace")
	}
	want, err := os.ReadFile(cliTrace)
	if err != nil {
		t.Fatalf("reading reference trace: %v", err)
	}
	got, err := os.ReadFile(daemonTrace)
	if err != nil {
		t.Fatalf("reading daemon trace: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon trace differs from CLI trace (%d vs %d bytes)", len(got), len(want))
	}
	assertValidTrace(t, daemonTrace)
}
