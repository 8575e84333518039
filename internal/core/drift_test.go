package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// driftProfile is a small drifting scenario whose multi-site defect
// keeps the repair density low enough that the online phase survives
// past both drift thresholds instead of terminating on an early repair.
func driftProfile() scenario.Profile {
	// Three defect sites behind a composition cap of 5 make an accidental
	// repair (all three canonical repairers in one ≤5-draw from a ~200-
	// mutation pool) vanishingly unlikely, so every learner survives past
	// both drift thresholds; the 20-probe interval lets even the
	// 2-agent Slate configuration reach them within MaxIter.
	return scenario.Profile{
		Name: "drift-e2e", Family: scenario.FamilyDrifting,
		Blocks: 12, Redundancy: 1.8, Options: 5, PositiveTests: 5,
		DefectEdits: 3, DriftSteps: 2, DriftInterval: 20, Seed: 42,
	}
}

// runDrifting replays the cmd/mwrepair pipeline for a drifting scenario
// and returns the result plus the raw JSONL trace bytes. The scenario and
// pool are rebuilt per call from fixed seeds, so every call is an
// independent, bit-reproducible run.
func runDrifting(t *testing.T, alg string, workers int, st *store.Store) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tracer := obs.New(obs.NewJSONL(&buf),
		obs.WithRun(obs.RunID(7, "mwrepair", "drift-e2e", alg)),
		obs.WithSample(1))
	prof := driftProfile()
	sc := scenario.Generate(prof)
	if sc.Drift.Len() != 2 {
		t.Fatalf("drift schedule has %d steps, want 2", sc.Drift.Len())
	}
	r := rng.New(7)
	ctx := context.Background()
	pl := sc.BuildPoolStored(ctx, workers, r.Split(), tracer, st)
	cfg := Config{
		MaxIter: 40, Workers: workers, MaxX: prof.Options,
		Trace: tracer, Store: st, Drift: sc.Drift,
	}
	res, err := RepairWithAlgorithm(ctx, alg, pl, sc.Suite, r.Split(), cfg)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	return res, buf.Bytes()
}

func countDriftEvents(trace []byte) int {
	return strings.Count(string(trace), `"type":"drift"`)
}

// TestDriftTraceByteIdenticalAcrossWorkerCounts extends the §11
// determinism guarantee to non-stationary runs, over all five learners:
// drift steps fire at update-cycle boundaries from worker-invariant
// cumulative probe counts, so the JSONL stream — including the drift
// events themselves — is byte-identical at any -workers count.
func TestDriftTraceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, alg := range mwu.Names {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			res, serial := runDrifting(t, alg, 1, nil)
			if n, err := obs.ValidateJSONL(bytes.NewReader(serial)); err != nil {
				t.Fatalf("invalid trace: %v", err)
			} else if n == 0 {
				t.Fatal("empty trace")
			}
			if res.DriftSteps == 0 {
				t.Fatal("no drift step fired; the fixture no longer exercises drift")
			}
			if got := countDriftEvents(serial); got != res.DriftSteps {
				t.Fatalf("trace carries %d drift events, result reports %d steps", got, res.DriftSteps)
			}
			for _, workers := range []int{4, 7} {
				wres, got := runDrifting(t, alg, workers, nil)
				if !bytes.Equal(serial, got) {
					t.Fatalf("trace at Workers=%d differs from Workers=1 (%d vs %d bytes)",
						workers, len(got), len(serial))
				}
				if wres.DriftSteps != res.DriftSteps {
					t.Fatalf("DriftSteps at Workers=%d: %d, want %d", workers, wres.DriftSteps, res.DriftSteps)
				}
			}
		})
	}
}

// TestDriftWarmRunByteIdenticalToColdRun extends the persistent-store
// determinism guarantee to drifting runs: a warm-started drifting run
// must match the cold run byte for byte and must reuse only verdicts
// recorded under the matching phase's suite fingerprint. If drifted
// fingerprints reused stale verdicts, post-drift probes would observe
// the old phase's rewards and the traces would diverge.
func TestDriftWarmRunByteIdenticalToColdRun(t *testing.T) {
	storeDir := t.TempDir()
	st, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldTrace := runDrifting(t, "standard", 4, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm, warmTrace := runDrifting(t, "standard", 4, st2)

	if !bytes.Equal(coldTrace, warmTrace) {
		t.Fatalf("warm drifting trace differs from cold (%d vs %d bytes)", len(warmTrace), len(coldTrace))
	}
	if cold.DriftSteps != warm.DriftSteps || cold.DriftSteps == 0 {
		t.Fatalf("drift steps: cold %d, warm %d", cold.DriftSteps, warm.DriftSteps)
	}
	if warm.WarmHits == 0 {
		t.Fatal("warm drifting run reused nothing from the store")
	}
	if warm.FitnessEvals >= cold.FitnessEvals {
		t.Fatalf("warm run executed %d suite evaluations, cold %d: store reuse saved nothing",
			warm.FitnessEvals, cold.FitnessEvals)
	}
}

// TestDriftChangesTheSearch is the positive control for the drift
// plumbing — it fails if the schedule is silently dropped on the way to
// the runner. The hand-built drift step redefines the bug so the new
// negative test expects the DEFECTIVE program's own output: once it
// fires, any safe probe that preserves the defect's behaviour is a full
// repair, so the drifting run terminates early where the stationary run
// (3-site defect, composition cap 5) cannot repair at all.
func TestDriftChangesTheSearch(t *testing.T) {
	prof := driftProfile()
	prof.DriftSteps = 0 // schedule is hand-built below
	sc := scenario.Generate(prof)
	neg := sc.Suite.Negative[0]
	out := lang.Compile(sc.Program).Run(lang.Options{Input: neg.Input})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	flipped := &testsuite.Suite{
		Positive: sc.Suite.Positive,
		Negative: []testsuite.Test{{Name: "flipped", Input: neg.Input, Want: out.Output, MaxSteps: neg.MaxSteps}},
	}
	drift := &testsuite.Drift{Steps: []testsuite.DriftStep{
		{AfterProbes: 20, Suite: flipped, Kind: testsuite.DriftFaultMoved},
	}}
	run := func(d *testsuite.Drift) Result {
		r := rng.New(7)
		ctx := context.Background()
		pl := sc.BuildPoolStored(ctx, 2, r.Split(), nil, nil)
		res, err := RepairWithAlgorithm(ctx, "standard", pl, sc.Suite, r.Split(),
			Config{MaxIter: 40, Workers: 2, MaxX: prof.Options, Drift: d})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	still := run(nil)
	drifted := run(drift)
	if still.DriftSteps != 0 || drifted.DriftSteps != 1 {
		t.Fatalf("drift steps: stationary %d, drifting %d", still.DriftSteps, drifted.DriftSteps)
	}
	if still.Repaired {
		t.Fatal("stationary run repaired a 3-site defect under a 5-composition cap")
	}
	if !drifted.Repaired {
		t.Fatal("drifting run did not repair after the bug definition flipped")
	}
	if drifted.Iterations >= still.Iterations {
		t.Fatalf("drifting run (%d iters) did not terminate before the stationary one (%d)",
			drifted.Iterations, still.Iterations)
	}
}

// TestCongestionCostAccounting covers the adversarial wiring through
// core: λ > 0 fills the cost fields without touching the search, and
// the totals are worker-count invariant.
func TestCongestionCostAccounting(t *testing.T) {
	prof := driftProfile()
	prof.Name = "adv-e2e"
	prof.Family = scenario.FamilyAdversarial
	prof.DriftSteps = 0
	prof.CongestionLambda = 0.5
	sc := scenario.Generate(prof)
	run := func(lambda float64, workers int) Result {
		r := rng.New(11)
		ctx := context.Background()
		pl := sc.BuildPoolStored(ctx, workers, r.Split(), nil, nil)
		res, err := RepairWithAlgorithm(ctx, "congestion", pl, sc.Suite, r.Split(),
			Config{MaxIter: 30, Workers: workers, MaxX: prof.Options, CongestionLambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0, 2)
	if free.CongestionCost != 0 || free.MaxLoad != 0 {
		t.Fatalf("λ=0 run accounted congestion: cost=%v maxload=%d", free.CongestionCost, free.MaxLoad)
	}
	priced := run(0.5, 2)
	if priced.CongestionCost < float64(priced.Probes) {
		t.Fatalf("congestion cost %v below unit cost of %d probes", priced.CongestionCost, priced.Probes)
	}
	if priced.MaxLoad < 1 {
		t.Fatalf("max load %d", priced.MaxLoad)
	}
	// Accounting is observational: the search itself is unchanged.
	if priced.Probes != free.Probes || priced.Iterations != free.Iterations ||
		priced.LearnedArm != free.LearnedArm {
		t.Fatalf("λ changed the search: %+v vs %+v", priced, free)
	}
	for _, workers := range []int{1, 5} {
		again := run(0.5, workers)
		if again.CongestionCost != priced.CongestionCost || again.MaxLoad != priced.MaxLoad {
			t.Fatalf("congestion totals vary with Workers=%d: cost %v vs %v, load %d vs %d",
				workers, again.CongestionCost, priced.CongestionCost, again.MaxLoad, priced.MaxLoad)
		}
	}
}
