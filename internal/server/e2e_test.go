package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestDaemonMatchesCLIByteForByte is the determinism guarantee of the
// daemon: a job with the same scenario/seed/config as a one-shot
// cmd/mwrepair invocation must produce a byte-identical JSONL trace and
// the identical patch, for one row of each scenario family. The
// reference side spells out the historical RNG split sequence —
// rng.New(seed), phase 1 on its first split, RepairWithAlgorithm on its
// second — rather than calling core.RunJob, so it pins that discipline
// for the one job path the daemon and the CLI share.
func TestDaemonMatchesCLIByteForByte(t *testing.T) {
	const (
		seed    = uint64(3)
		workers = 4
		maxIter = 500
	)
	cases := []struct {
		name      string
		alg       string
		faultRate float64
		managed   bool
		cutoff    int
	}{
		{name: "lighttpd-1806-1807", alg: "standard"},
		{name: "drift-grow", alg: "slate", faultRate: 0.05, managed: true, cutoff: 50},
		{name: "adv-mild", alg: "congestion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			// Reference: the CLI pipeline, in-process.
			cliTrace := filepath.Join(dir, "cli.jsonl")
			f, err := os.Create(cliTrace)
			if err != nil {
				t.Fatalf("creating reference trace: %v", err)
			}
			tracer := obs.New(obs.NewJSONL(f),
				obs.WithRun(obs.RunID(seed, "mwrepair", tc.name, tc.alg)),
				obs.WithSample(1))
			prof := scenario.MustByName(tc.name)
			sc := scenario.Generate(prof)
			r := rng.New(seed)
			ctx := context.Background()
			pl := sc.BuildPoolStored(ctx, workers, r.Split(), tracer, nil)
			cfg := core.Config{
				MaxIter: maxIter, Workers: workers, MaxX: prof.Options, StragglerCutoff: tc.cutoff,
				Trace: tracer, Drift: sc.Drift, CongestionLambda: prof.CongestionLambda,
			}
			if tc.faultRate > 0 {
				cfg.Faults = faults.New(faults.Uniform(seed, tc.faultRate))
			}
			if tc.managed {
				cfg.Policies = faults.DefaultPolicies()
			}
			res, err := core.RepairWithAlgorithm(ctx, tc.alg, pl, sc.Suite, r.Split(), cfg)
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
				Scenario:  tc.name,
				Algorithm: tc.alg,
				Seed:      seed,
				Workers:   workers,
				MaxIter:   maxIter,
				FaultRate: tc.faultRate,
				Managed:   tc.managed,
				Cutoff:    tc.cutoff,
				Trace:     true,
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

			// Same run shape and patch, mutation by mutation.
			jres := j.Result()
			if jres.Repaired != res.Repaired {
				t.Fatalf("repaired: daemon %v, CLI %v", jres.Repaired, res.Repaired)
			}
			if jres.Iterations != res.Iterations || jres.Probes != res.Probes ||
				jres.DriftSteps != res.DriftSteps || jres.CongestionCost != res.CongestionCost {
				t.Fatalf("run shape diverged: daemon %d iter/%d probes/%d drift/%v cost, CLI %d/%d/%d/%v",
					jres.Iterations, jres.Probes, jres.DriftSteps, jres.CongestionCost,
					res.Iterations, res.Probes, res.DriftSteps, res.CongestionCost)
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
			daemonTrace := tracePathOf(j)
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
		})
	}
}
