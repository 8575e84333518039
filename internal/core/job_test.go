package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/scenario"
)

// runTraced runs job with a JSONL trace and returns the result, the pool
// and the trace's events, each decoded with its sequence number removed.
func runTraced(t *testing.T, job Job) (Result, *pool.Pool, []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	job.Trace = obs.New(obs.NewJSONL(&buf), obs.WithRun(job.Label()))
	pl, res, err := RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		delete(e, "seq")
		events = append(events, e)
	}
	return res, pl, events
}

// A pool built by BuildPool (poolctl -build), saved and loaded into
// RunJob (mwrepair -loadpool) must reproduce the run that built its own
// pool: the same pool, the same Result, and the same phase-2 events.
func TestRunJobReloadedPoolReproducesRun(t *testing.T) {
	job := Job{
		Scenario: scenario.Generate(scenario.MustByName("lighttpd-1806-1807")),
		Seed:     3,
		MaxIter:  500,
		Workers:  2,
	}
	built, builtPool, builtEvents := runTraced(t, job)
	if !built.Repaired {
		t.Fatalf("no repair in %d iterations; the round trip would compare nothing", built.Iterations)
	}

	pl := BuildPool(context.Background(), job)
	if !slices.Equal(pl.Mutations(), builtPool.Mutations()) {
		t.Fatalf("BuildPool built %d mutations, RunJob %d (or a different order)", pl.Size(), builtPool.Size())
	}
	var saved bytes.Buffer
	if err := pl.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var err error
	if job.Pool, err = pool.Load(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, _, loadedEvents := runTraced(t, job)

	if loaded.Repaired != built.Repaired || loaded.Iterations != built.Iterations ||
		loaded.Probes != built.Probes || loaded.FitnessEvals != built.FitnessEvals ||
		loaded.LearnedArm != built.LearnedArm {
		t.Fatalf("reloaded run diverged: %+v\nbuilt run: %+v", loaded, built)
	}
	if !slices.Equal(loaded.Patch, built.Patch) || loaded.Program.String() != built.Program.String() {
		t.Fatalf("reloaded patch %v, built %v", loaded.Patch, built.Patch)
	}

	phase2 := builtEvents[:0:0]
	for _, e := range builtEvents {
		if e["type"] != string(obs.TypePoolBatch) {
			phase2 = append(phase2, e)
		}
	}
	if len(phase2) == len(builtEvents) {
		t.Fatal("built run traced no phase-1 events")
	}
	if len(loadedEvents) != len(phase2) {
		t.Fatalf("reloaded run traced %d events, the built run's phase 2 %d", len(loadedEvents), len(phase2))
	}
	for i := range phase2 {
		a, _ := json.Marshal(loadedEvents[i])
		b, _ := json.Marshal(phase2[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("phase-2 event %d: reloaded %s, built %s", i, a, b)
		}
	}
}

// A saved pool is a function of the scenario and seed alone: builds at
// workers 1 and 8 save byte-identical files, so the scheduling-dependent
// dedup count stays out of them, and a file that still carries it (as
// older builds wrote) loads the same pool.
func TestSavedPoolByteIdenticalAcrossWorkers(t *testing.T) {
	job := Job{Scenario: scenario.Generate(scenario.MustByName("units")), Seed: 3}
	save := func(workers int) []byte {
		job.Workers = workers
		var buf bytes.Buffer
		if err := BuildPool(context.Background(), job).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := save(1)
	if bytes.Contains(want, []byte("DedupSuppressed")) {
		t.Fatal("the saved pool carries the scheduling-dependent DedupSuppressed count")
	}
	for run := 0; run < 3; run++ {
		if got := save(8); !bytes.Equal(got, want) {
			t.Fatalf("run %d: the pool saved at workers 8 differs from workers 1:\n%s\n%s", run, got, want)
		}
	}
	old := bytes.Replace(want, []byte(`"stats":{`), []byte(`"stats":{"DedupSuppressed":1,`), 1)
	if bytes.Equal(old, want) {
		t.Fatal(`the saved pool has no "stats" object`)
	}
	pl, err := pool.Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("loading a file with DedupSuppressed: %v", err)
	}
	var again bytes.Buffer
	if err := pl.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("a file with DedupSuppressed does not load the same pool")
	}
}

// A pool built for one program must not run against another scenario:
// its indices would address the wrong statements.
func TestRunJobRejectsForeignPool(t *testing.T) {
	_, foreign := smallScenario(t, 1)
	units := scenario.Generate(scenario.MustByName("units"))
	pl, _, err := RunJob(context.Background(), Job{Scenario: units, Pool: foreign, MaxIter: 10})
	if err == nil {
		t.Fatal("RunJob accepted a pool built for another program")
	}
	if pl != nil {
		t.Fatal("RunJob returned the rejected pool")
	}
	for _, want := range []string{"units", "statement"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

func TestJobWithDefaults(t *testing.T) {
	d := Job{}.WithDefaults()
	if d.Algorithm != "standard" || d.Seed != 1 || d.MaxIter != 2000 || d.Workers != 8 {
		t.Fatalf("defaults %+v", d)
	}
	set := Job{Algorithm: "slate", Seed: 9, MaxIter: 7, Workers: 3}
	if got := set.WithDefaults(); got.Algorithm != "slate" || got.Seed != 9 || got.MaxIter != 7 || got.Workers != 3 {
		t.Fatalf("WithDefaults overrode set knobs: %+v", got)
	}
}
