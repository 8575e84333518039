package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRetryAfterSubSecondRoundsUp: a sub-second RetryAfter config must
// render a positive whole-second Retry-After — int(Seconds()) truncated
// 500ms to "0", which clients read as "retry immediately" and hot-spun.
func TestRetryAfterSubSecondRoundsUp(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 500 * time.Millisecond})

	_, running := postJob(t, srv, slowSpec())
	waitState(t, m, running.ID, StateRunning, 10*time.Second)
	resp, queued := postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: status %d", resp.StatusCode)
	}

	resp, _ = postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-full submit: status %d, want 429", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(got)
	if err != nil || secs < 1 {
		t.Fatalf("429 Retry-After = %q, want a whole second >= 1", got)
	}

	for _, id := range []string{queued.ID, running.ID} {
		_ = m.Cancel(id)
		waitTerminal(t, m, id, 15*time.Second)
	}
}

// TestDrainingSubmitCarriesRetryAfter: the 503 refused-while-draining
// response must carry the same pacing hint as a 429, so a retrying
// client backs off instead of spinning on the draining instance.
func TestDrainingSubmitCarriesRetryAfter(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4, RetryAfter: 2 * time.Second})

	ctx, cancel := ctxWithTimeout(10 * time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown of idle manager: %v", err)
	}

	resp, _ := postJob(t, srv, repairableSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("503 Retry-After = %q, want \"2\"", got)
	}
}

// TestOversizedBodyIs413: a body beyond maxSpecBytes is a payload-size
// problem (413 with the limit named), not a generic decode failure (400).
func TestOversizedBodyIs413(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})

	// Valid JSON, hostile size: a program field larger than the limit.
	huge := fmt.Sprintf(`{"program": %q}`, strings.Repeat("x", maxSpecBytes+1))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("POST oversized: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding 413 body: %v", err)
	}
	if !strings.Contains(body.Error, strconv.Itoa(maxSpecBytes)) {
		t.Fatalf("413 body %q does not name the %d-byte limit", body.Error, maxSpecBytes)
	}
}

// TestListJobsPagination: ?offset/?limit window the admission-ordered
// list, X-Total-Count reports the full table, and bad values are 400s.
func TestListJobsPagination(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 8})

	_, blocker := postJob(t, srv, slowSpec())
	waitState(t, m, blocker.ID, StateRunning, 10*time.Second)
	var ids []string
	ids = append(ids, blocker.ID)
	for i := 0; i < 4; i++ {
		_, st := postJob(t, srv, slowSpec())
		ids = append(ids, st.ID)
	}

	list := func(query string) (*http.Response, []Status) {
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatalf("GET /v1/jobs%s: %v", query, err)
		}
		defer resp.Body.Close()
		var out []Status
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decoding list: %v", err)
			}
		}
		return resp, out
	}

	resp, all := list("")
	if len(all) != 5 {
		t.Fatalf("unpaginated list has %d jobs, want 5", len(all))
	}
	if got := resp.Header.Get("X-Total-Count"); got != "5" {
		t.Fatalf("X-Total-Count = %q, want 5", got)
	}
	for i, st := range all {
		if st.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s (admission order)", i, st.ID, ids[i])
		}
	}

	_, page := list("?offset=1&limit=2")
	if len(page) != 2 || page[0].ID != ids[1] || page[1].ID != ids[2] {
		t.Fatalf("page(1,2) = %+v, want [%s %s]", page, ids[1], ids[2])
	}
	resp, tail := list("?offset=4")
	if len(tail) != 1 || tail[0].ID != ids[4] {
		t.Fatalf("offset=4 = %+v, want [%s]", tail, ids[4])
	}
	if got := resp.Header.Get("X-Total-Count"); got != "5" {
		t.Fatalf("paged X-Total-Count = %q, want 5 (total, not page)", got)
	}
	if _, empty := list("?offset=99"); len(empty) != 0 {
		t.Fatalf("offset past end returned %d jobs", len(empty))
	}
	if resp, _ := list("?limit=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=-1: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := list("?offset=x"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offset=x: status %d, want 400", resp.StatusCode)
	}

	for _, id := range ids {
		_ = m.Cancel(id)
		waitTerminal(t, m, id, 15*time.Second)
	}
}

// TestCancelQueuedVsClaimedRace hammers the claim/cancel window: one
// worker drains a queue of fast jobs while every job is concurrently
// cancelled. Exercises all three Cancel paths (queued, claimed-not-
// started, running) under -race; every job must still reach exactly one
// terminal state and the manager must drain cleanly afterwards.
func TestCancelQueuedVsClaimedRace(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 2, QueueDepth: 64})

	const jobs = 24
	var ids []string
	for i := 0; i < jobs; i++ {
		resp, st := postJob(t, srv, repairableSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	// Race the cancels against the workers' claims.
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			err := m.Cancel(id)
			// ErrJobFinished is legal: the worker won the race.
			if err != nil && err != ErrJobFinished {
				t.Errorf("cancel %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	for _, id := range ids {
		state := waitTerminal(t, m, id, 30*time.Second)
		if state != StateCancelled && state != StateDone {
			t.Errorf("job %s landed %s, want cancelled or done", id, state)
		}
		j, _ := m.Get(id)
		st := j.status()
		// A job cancelled before claim must never carry a start time; a
		// job that ran must carry both.
		if st.StartedAt == "" && st.State == StateDone {
			t.Errorf("job %s done without StartedAt", id)
		}
	}

	ctx, cancel := ctxWithTimeout(15 * time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("post-race shutdown: %v", err)
	}
}

// TestJobLatencyHistogramsObserved: a completed job lands one observation
// in each of the three per-job latency histograms, and the interpolated
// Quantile estimate is non-degenerate — the contract the load harness's
// server-side cross-check depends on.
func TestJobLatencyHistogramsObserved(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})
	_, st := postJob(t, srv, repairableSpec())
	if got := waitTerminal(t, m, st.ID, 30*time.Second); got != StateDone {
		t.Fatalf("job finished %s, want done", got)
	}

	reg := m.Registry()
	for _, name := range []string{
		"server.job.queue_wait_ms", "server.job.latency_ms", "server.job.e2e_ms",
	} {
		h := reg.Histogram(name, nil)
		if h.Count() != 1 {
			t.Errorf("%s observed %d values, want 1", name, h.Count())
		}
		if q := quantile(h, 0.5); !(q >= 0) {
			t.Errorf("%s Quantile(0.5) = %v, want >= 0", name, q)
		}
	}
}

// TestLatencyBoundsResolveSubMillisecondWaits: an idle worker claims a job
// within tens of microseconds, so the queue-wait histogram must resolve
// waits far below 1 ms. With 1 ms as the lowest bound, waits of ~0.02 ms
// interpolate to a p50 of 0.5 ms, 25× what a client measures.
func TestLatencyBoundsResolveSubMillisecondWaits(t *testing.T) {
	h := obs.NewRegistry().Histogram("server.job.queue_wait_ms", latencyBoundsMs)
	for i := 0; i < 100; i++ {
		h.Observe(0.018 + 0.00004*float64(i)) // 0.018 .. 0.022 ms
	}
	if q := quantile(h, 0.5); q > 0.025 {
		t.Fatalf("queue-wait p50 = %v ms for waits of ~0.02 ms, want <= 0.025", q)
	}
}

// quantile is obs.QuantileFromBuckets over h's current buckets.
func quantile(h *obs.Histogram, q float64) float64 {
	b, c := h.Buckets()
	return obs.QuantileFromBuckets(b, c, q)
}
