package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestStoreSharedAcrossJobs is the daemon-side warm-start guarantee: two
// identical jobs against one manager-owned store must produce identical
// results, with the second job warm-starting from the first job's
// recorded verdicts — fewer suite executions, same patch, and the
// manager's pool.store_hits / cache.warm_entries counters advancing.
func TestStoreSharedAcrossJobs(t *testing.T) {
	st, err := store.Open(store.Options{Dir: filepath.Join(t.TempDir(), "data")})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	defer st.Close()

	reg := obs.NewRegistry()
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Registry: reg, Store: st})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(sctx)
	}()

	spec := Spec{Scenario: "lighttpd-1806-1807", Seed: 3, Workers: 4, MaxIter: 500}
	run := func() *Result {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job stuck in %s", j.State())
		}
		if j.State() != StateDone {
			t.Fatalf("job finished %s, want done", j.State())
		}
		return j.Result()
	}

	first := run()
	second := run()

	// Identical outcome — warm-starting never changes results.
	if first.Repaired != second.Repaired {
		t.Fatalf("repaired: first %v, second %v", first.Repaired, second.Repaired)
	}
	if first.Iterations != second.Iterations || first.Probes != second.Probes {
		t.Fatalf("run shape diverged: first %d iter/%d probes, second %d/%d",
			first.Iterations, first.Probes, second.Iterations, second.Probes)
	}
	if len(first.Patch) != len(second.Patch) {
		t.Fatalf("patch length: first %d, second %d", len(first.Patch), len(second.Patch))
	}
	for i := range first.Patch {
		if first.Patch[i] != second.Patch[i] {
			t.Fatalf("patch[%d]: first %+v, second %+v", i, first.Patch[i], second.Patch[i])
		}
	}
	if first.Program != second.Program {
		t.Fatal("repaired programs differ")
	}

	// The second job actually reused the store.
	if first.WarmEntries != 0 {
		t.Fatalf("first job warm-started %d entries from an empty store", first.WarmEntries)
	}
	if second.WarmEntries == 0 {
		t.Fatal("second job loaded no warm entries from a populated store")
	}
	if second.PoolStoreHits == 0 {
		t.Fatal("second job's pool build reused no store verdicts")
	}
	if second.FitnessEvals >= first.FitnessEvals {
		t.Fatalf("second job executed %d suite evaluations, first %d: store reuse saved nothing",
			second.FitnessEvals, first.FitnessEvals)
	}

	// Manager-level counters and store stats exported.
	if got := reg.Counter("cache.warm_entries").Value(); got != second.WarmEntries {
		t.Fatalf("cache.warm_entries = %d, want %d", got, second.WarmEntries)
	}
	if got := reg.Counter("pool.store_hits").Value(); got != second.PoolStoreHits {
		t.Fatalf("pool.store_hits = %d, want %d", got, second.PoolStoreHits)
	}
	if got := reg.Counter("server.store.eval_records").Value(); got == 0 {
		t.Fatal("server.store.eval_records not exported")
	}
}

// TestStoreSharedAcrossConcurrentJobs runs several manager workers
// against one shared store, fed by concurrent HTTP clients: three specs,
// each submitted four times, so cold and warm runs of the same spec
// overlap. Every run of a spec must repair identically, and its lookups
// (suite evaluations plus cache hits) must match, since a warm entry
// turns an evaluation into a hit one for one. The manager's running and
// queue gauges end at zero, and each latency histogram counts every job.
func TestStoreSharedAcrossConcurrentJobs(t *testing.T) {
	st, err := store.Open(store.Options{Dir: filepath.Join(t.TempDir(), "data")})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	m, srv := testServer(t, Config{Workers: 4, QueueDepth: 16, Store: st})

	seeds := []uint64{7, 8, 9}
	const clients, perClient = 4, 3
	ids := make([]string, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				spec := repairableSpec()
				spec.Seed = seeds[i%len(seeds)]
				body, _ := json.Marshal(spec)
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST job %d: %v", i, err)
					return
				}
				var s Status
				err = json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil {
					t.Errorf("submit job %d: status %d, decode %v", i, resp.StatusCode, err)
					return
				}
				ids[i] = s.ID
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	first := map[uint64]*Result{}
	for i, id := range ids {
		if got := waitTerminal(t, m, id, 30*time.Second); got != StateDone {
			t.Fatalf("job %s finished %s, want done", id, got)
		}
		j, _ := m.Get(id)
		res, seed := j.Result(), seeds[i%len(seeds)]
		ref, ok := first[seed]
		if !ok {
			first[seed] = res
			continue
		}
		if res.Repaired != ref.Repaired || res.Iterations != ref.Iterations || res.Probes != ref.Probes {
			t.Errorf("seed %d, job %s: repaired/iterations/probes %v/%d/%d, want %v/%d/%d",
				seed, id, res.Repaired, res.Iterations, res.Probes, ref.Repaired, ref.Iterations, ref.Probes)
		}
		if !slices.Equal(res.Patch, ref.Patch) {
			t.Errorf("seed %d, job %s: patch %+v, want %+v", seed, id, res.Patch, ref.Patch)
		}
		if got, want := res.FitnessEvals+res.CacheHits, ref.FitnessEvals+ref.CacheHits; got != want {
			t.Errorf("seed %d, job %s: %d lookups (evals+hits), want %d", seed, id, got, want)
		}
	}

	reg := m.Registry()
	if got := reg.Gauge("server.queue.depth").Value(); got != 0 {
		t.Errorf("server.queue.depth = %v after every job finished, want 0", got)
	}
	// A worker updates the running gauge and the histograms after it
	// closes a job's Done channel; Shutdown waits for the workers.
	ctx, cancel := ctxWithTimeout(10 * time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := reg.Gauge("server.jobs.running").Value(); got != 0 {
		t.Errorf("server.jobs.running = %v after shutdown, want 0", got)
	}
	for _, name := range []string{
		"server.job.queue_wait_ms", "server.job.latency_ms", "server.job.e2e_ms",
	} {
		if got := reg.Histogram(name, nil).Count(); got != int64(len(ids)) {
			t.Errorf("%s counts %d jobs, want %d", name, got, len(ids))
		}
	}
	if d := st.Stats().Dropped; d != 0 {
		t.Errorf("store dropped %d records, want 0", d)
	}
}
