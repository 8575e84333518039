package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/obs"
)

func ctxWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// repairableSrc is a fast custom subject: the guard jumps clean inputs
// (n < 100) over the defect, so all positives pass, while the negative
// (n = 500) falls through `set acc = acc + 7` and prints 508 instead of
// 501. Deleting (or neutralizing) that statement is a repair, and the
// negative test covers it, so the mutation pool can target it.
const repairableSrc = `input n
input m
set acc = n + m
if n < 100 goto ok
set acc = acc + 7
label ok
print acc
halt
`

func repairableSuite() *SuiteSpec {
	return &SuiteSpec{
		Positive: []TestSpec{
			{Name: "small", Input: []int64{1, 2}, Want: []int64{3}},
			{Name: "mid", Input: []int64{5, 5}, Want: []int64{10}},
			{Name: "edge", Input: []int64{99, 0}, Want: []int64{99}},
		},
		Negative: []TestSpec{
			{Name: "big", Input: []int64{500, 1}, Want: []int64{501}},
		},
	}
}

// slowSrc is a deterministic time sink with no reachable repair: every
// evaluation burns a 20000-iteration loop, and the negative test demands
// an output (7 for n = 3) that no composition of the program's own
// statements can produce while the positives still hold (acc is only
// ever n * 2). Jobs over it run until cancelled.
const slowSrc = `input n
set i = 0
label top
set i = i + 1
if i < 20000 goto top
set acc = n * 2
print acc
halt
`

func slowSuite() *SuiteSpec {
	return &SuiteSpec{
		Positive: []TestSpec{
			{Name: "one", Input: []int64{1}, Want: []int64{2}},
			{Name: "two", Input: []int64{2}, Want: []int64{4}},
		},
		Negative: []TestSpec{
			{Name: "odd", Input: []int64{3}, Want: []int64{7}},
		},
	}
}

func repairableSpec() Spec {
	return Spec{
		Program:    repairableSrc,
		Name:       "guarded-add",
		Suite:      repairableSuite(),
		PoolTarget: 32,
		Seed:       7,
		Workers:    2,
		MaxIter:    2000,
	}
}

func slowSpec() Spec {
	return Spec{
		Program:    slowSrc,
		Name:       "spinner",
		Suite:      slowSuite(),
		PoolTarget: 8,
		Seed:       1,
		Workers:    1,
		MaxIter:    1_000_000,
	}
}

// testServer wires a Manager (with test-friendly sizing) into httptest.
func testServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := ctxWithTimeout(10 * time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec any) (*http.Response, Status) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitTerminal(t *testing.T, m *Manager, id string, budget time.Duration) State {
	t.Helper()
	j, ok := m.Get(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	select {
	case <-j.Done():
	case <-time.After(budget):
		t.Fatalf("job %s still %s after %v", id, j.State(), budget)
	}
	return j.State()
}

// waitState polls until the job reaches want (for non-terminal targets).
func waitState(t *testing.T, m *Manager, id string, want State, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("unknown job %s", id)
		}
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (now %s)", id, want, j.State())
}

func TestJobLifecycleRepairs(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, st := postJob(t, srv, repairableSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", got, st.ID)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	if got := waitTerminal(t, m, st.ID, 30*time.Second); got != StateDone {
		final := getStatus(t, srv, st.ID)
		t.Fatalf("job finished %s (error %q), want done", got, final.Error)
	}

	final := getStatus(t, srv, st.ID)
	if final.Result == nil || !final.Result.Repaired {
		t.Fatalf("done job has no repair: %+v", final.Result)
	}
	if final.Result.PoolSize == 0 || len(final.Result.Patch) == 0 {
		t.Fatalf("result missing pool/patch: %+v", final.Result)
	}
	if final.QueuedAt == "" || final.StartedAt == "" || final.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	// The patch endpoint serves the mutations and the repaired program.
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/patch")
	if err != nil {
		t.Fatalf("GET patch: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET patch: status %d", resp2.StatusCode)
	}
	var patch struct {
		ID      string          `json:"id"`
		Patch   json.RawMessage `json:"patch"`
		Program string          `json:"program"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&patch); err != nil {
		t.Fatalf("decoding patch: %v", err)
	}
	if patch.ID != st.ID || patch.Program == "" {
		t.Fatalf("patch body incomplete: %+v", patch)
	}

	_ = m // lifecycle asserted above
}

func TestSubmitValidation(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})

	cases := []struct {
		name string
		spec map[string]any
	}{
		{"empty", map[string]any{}},
		{"both subjects", map[string]any{"scenario": "units", "program": "halt\n"}},
		{"unknown scenario", map[string]any{"scenario": "no-such-scenario"}},
		{"bad algorithm", map[string]any{"scenario": "units", "algorithm": "thompson"}},
		{"bad timeout", map[string]any{"scenario": "units", "timeout": "soon"}},
		{"bad faultRate", map[string]any{"scenario": "units", "faultRate": 1.5}},
		{"unknown field", map[string]any{"scenario": "units", "bogus": 1}},
		{"program without suite", map[string]any{"program": "halt\n"}},
		{"scenario with suite", map[string]any{"scenario": "units", "suite": repairableSuite()}},
		{"unparsable program", map[string]any{"program": "set = garbage\n", "suite": repairableSuite()}},
		{"program passing its negatives", map[string]any{
			// No failing negative test => nothing to repair.
			"program": "input n\nprint n\nhalt\n",
			"suite": &SuiteSpec{
				Positive: []TestSpec{{Input: []int64{1}, Want: []int64{1}}},
				Negative: []TestSpec{{Input: []int64{2}, Want: []int64{2}}},
			},
		}},
		// One row per admission limit, one above it.
		{"workers above limit", map[string]any{"scenario": "units", "workers": maxWorkers + 1}},
		{"agents above limit", map[string]any{"scenario": "units", "agents": maxAgents + 1}},
		{"poolTarget above limit", map[string]any{
			"program": repairableSrc, "suite": repairableSuite(), "poolTarget": maxPoolTarget + 1}},
		{"test maxSteps above limit", map[string]any{"program": repairableSrc, "suite": &SuiteSpec{
			Positive: []TestSpec{{Input: []int64{1, 2}, Want: []int64{3}, MaxSteps: maxTestSteps + 1}},
			Negative: repairableSuite().Negative,
		}}},
		{"suite steps above limit", map[string]any{
			"program": repairableSrc, "suite": stepSuite(maxSuiteSteps + 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, srv, tc.spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// stepSuite is repairableSuite grown by extra copies of its "small"
// positive test, each with an explicit maxSteps of at most maxTestSteps,
// until the suite's total step budget is exactly steps.
func stepSuite(steps int) *SuiteSpec {
	suite := repairableSuite()
	for left := steps - 4*lang.DefaultMaxSteps; left > 0; { // four default-budget tests
		n := min(left, maxTestSteps)
		suite.Positive = append(suite.Positive, TestSpec{Name: "extra", Input: []int64{1, 2}, Want: []int64{3}, MaxSteps: n})
		left -= n
	}
	return suite
}

// TestSubmitLimitsAdmitBoundary: a spec exactly at every admission limit
// is admitted, as are the registry defaults and the repo's own job specs.
func TestSubmitLimitsAdmitBoundary(t *testing.T) {
	if got, err := stepSuite(maxSuiteSteps).steps(); err != nil || got != maxSuiteSteps {
		t.Fatalf("stepSuite(maxSuiteSteps) budget = %d, %v", got, err)
	}
	specs := map[string]Spec{
		"registry": {Scenario: "units", Workers: maxWorkers, Agents: maxAgents},
		"custom at limits": {Program: repairableSrc, Suite: stepSuite(maxSuiteSteps),
			PoolTarget: maxPoolTarget, Workers: maxWorkers, Agents: maxAgents},
		"registry profile defaults": {Program: repairableSrc, Suite: repairableSuite(),
			PoolTarget: 5508, Agents: 250},
		"repairable": repairableSpec(),
		"slow":       slowSpec(),
	}
	for name, spec := range specs {
		if _, err := spec.validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

func TestRouting(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/jobs/nope"); got != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", got)
	}
	if got := get("/v1/nope"); got != http.StatusNotFound {
		t.Errorf("GET unknown path: %d, want 404", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("GET /healthz: %d, want 200", got)
	}
	if got := get("/v1/scenarios"); got != http.StatusOK {
		t.Errorf("GET /v1/scenarios: %d, want 200", got)
	}
	if got := get("/debug/metrics"); got != http.StatusOK {
		t.Errorf("GET /debug/metrics: %d, want 200", got)
	}

	// Known path, wrong method: the method-pattern mux answers 405.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/jobs", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /v1/jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: %d, want 405", resp.StatusCode)
	}

	// DELETE of an unknown job is 404.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, err := http.Get(srv.URL + "/v1/scenarios")
	if err != nil {
		t.Fatalf("GET /v1/scenarios: %v", err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name    string `json:"name"`
		Options int    `json:"options"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	found := false
	for _, s := range list {
		if s.Name == "lighttpd-1806-1807" && s.Options > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry listing missing lighttpd-1806-1807: %+v", list)
	}
}

func TestQueueFullRejects(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})

	// One slow job occupies the single worker...
	resp, running := postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// The worker claims it almost immediately; wait so the next submit
	// lands in the queue rather than going straight to a worker.
	waitState(t, m, running.ID, StateRunning, 10*time.Second)

	// ...a second fills the depth-1 queue...
	resp, queued := postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	// ...and the third is rejected with 429 + Retry-After.
	resp, _ = postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want 3", got)
	}

	// Cancel both so cleanup's Shutdown drains fast.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s: %d", id, resp.StatusCode)
		}
		waitTerminal(t, m, id, 15*time.Second)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})

	_, running := postJob(t, srv, slowSpec())
	waitState(t, m, running.ID, StateRunning, 10*time.Second)
	_, queued := postJob(t, srv, slowSpec())

	// Cancelling the queued job is immediate: it never runs.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE queued: %v", err)
	}
	resp.Body.Close()
	if got := waitTerminal(t, m, queued.ID, 5*time.Second); got != StateCancelled {
		t.Fatalf("queued job finished %s, want cancelled", got)
	}
	if st := getStatus(t, srv, queued.ID); st.StartedAt != "" {
		t.Fatalf("cancelled-while-queued job has StartedAt %q", st.StartedAt)
	}

	// Cancelling the running job unwinds the repair loop; the job lands
	// cancelled with a best-so-far partial result.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE running: %v", err)
	}
	resp.Body.Close()
	if got := waitTerminal(t, m, running.ID, 15*time.Second); got != StateCancelled {
		t.Fatalf("running job finished %s, want cancelled", got)
	}

	// A second DELETE of a finished job is 409.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("second DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: %d, want 409", resp.StatusCode)
	}

	// No patch from a cancelled, unrepaired job.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + running.ID + "/patch")
	if err != nil {
		t.Fatalf("GET patch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("patch of unrepaired job: %d, want 404", resp.StatusCode)
	}
}

func TestPatchConflictWhileRunning(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})
	_, st := postJob(t, srv, slowSpec())
	waitState(t, m, st.ID, StateRunning, 10*time.Second)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/patch")
	if err != nil {
		t.Fatalf("GET patch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("patch of running job: %d, want 409", resp.StatusCode)
	}

	if err := m.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitTerminal(t, m, st.ID, 15*time.Second)
}

func TestPriorityOrdersAdmission(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the single worker, then queue low before high.
	_, blocker := postJob(t, srv, slowSpec())
	waitState(t, m, blocker.ID, StateRunning, 10*time.Second)

	low := slowSpec()
	low.Priority = 0
	_, lowSt := postJob(t, srv, low)
	high := repairableSpec()
	high.Priority = 5
	_, highSt := postJob(t, srv, high)

	// Free the worker: the high-priority job must be claimed next even
	// though it was admitted after the low-priority one.
	if err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	if got := waitTerminal(t, m, highSt.ID, 30*time.Second); got != StateDone {
		t.Fatalf("high-priority job finished %s, want done", got)
	}
	if lowJob, _ := m.Get(lowSt.ID); lowJob.State() == StateDone {
		t.Fatal("low-priority job ran before the high-priority one finished")
	}

	if err := m.Cancel(lowSt.ID); err != nil {
		t.Fatalf("cancel low: %v", err)
	}
	waitTerminal(t, m, lowSt.ID, 15*time.Second)
}

func TestJobTimeoutCancels(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})
	spec := slowSpec()
	spec.Timeout = "150ms"
	_, st := postJob(t, srv, spec)
	if got := waitTerminal(t, m, st.ID, 20*time.Second); got != StateCancelled {
		t.Fatalf("timed-out job finished %s, want cancelled", got)
	}
	final := getStatus(t, srv, st.ID)
	if final.Result == nil || !final.Result.Cancelled {
		t.Fatalf("timed-out job missing partial result: %+v", final.Result)
	}
}

func TestProgressReported(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 4})
	_, st := postJob(t, srv, slowSpec())
	waitState(t, m, st.ID, StateRunning, 10*time.Second)

	// Progress snapshots accrue once the online phase iterates.
	deadline := time.Now().Add(20 * time.Second)
	var got Status
	for time.Now().Before(deadline) {
		got = getStatus(t, srv, st.ID)
		if got.Progress != nil && got.Progress.Iter > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.Progress == nil || got.Progress.Iter == 0 {
		t.Fatalf("no progress reported: %+v", got)
	}
	if got.Progress.Probes == 0 || got.Progress.BestArm == 0 {
		t.Fatalf("progress missing counters: %+v", got.Progress)
	}

	if err := m.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitTerminal(t, m, st.ID, 15*time.Second)
}

func TestListJobsOrdered(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 8})
	_, a := postJob(t, srv, slowSpec())
	_, b := postJob(t, srv, slowSpec())

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list = %+v, want [%s %s] in admission order", list, a.ID, b.ID)
	}

	for _, id := range []string{a.ID, b.ID} {
		_ = m.Cancel(id)
		waitTerminal(t, m, id, 15*time.Second)
	}
}

func TestShutdownDrainsAndFlushesTraces(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Workers: 1, QueueDepth: 4, TraceDir: dir, DrainTimeout: 100 * time.Millisecond})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	spec := slowSpec()
	spec.Trace = true
	_, running := postJob(t, srv, spec)
	waitState(t, m, running.ID, StateRunning, 10*time.Second)
	_, queued := postJob(t, srv, slowSpec())

	// healthz flips to 503 once draining.
	ctx, cancel := ctxWithTimeout(30 * time.Second)
	defer cancel()
	err := m.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown reported a clean drain despite an active slow job")
	}

	resp, herr := http.Get(srv.URL + "/healthz")
	if herr != nil {
		t.Fatalf("GET /healthz: %v", herr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}

	// Submissions are refused while draining.
	resp, _ = postJob(t, srv, slowSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}

	// The queued job was cancelled without running; the running job was
	// cancelled after the drain budget and still flushed its trace.
	if q, _ := m.Get(queued.ID); q.State() != StateCancelled {
		t.Fatalf("queued job is %s after shutdown, want cancelled", q.State())
	}
	r, _ := m.Get(running.ID)
	if r.State() != StateCancelled {
		t.Fatalf("running job is %s after shutdown, want cancelled", r.State())
	}
	tracePath := tracePathOf(r)
	if tracePath == "" {
		t.Fatal("traced job has no trace path")
	}
	assertValidTrace(t, tracePath)
}

func assertValidTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening trace: %v", err)
	}
	defer f.Close()
	n, err := obs.ValidateJSONL(f)
	if err != nil {
		t.Fatalf("trace %s invalid: %v", path, err)
	}
	if n == 0 {
		t.Fatalf("trace %s is empty", path)
	}
}

// TestRateOutsideDomainFailsJobNotDaemon: a learner rate outside the
// realization's domain (β ≥ 1 or β ≤ α for distributed, γ > 1 for slate)
// must end as a rejected or failed job. Such a rate panics the learner
// constructor (or, for slate, the run) unless NewLearner rejects it, and
// a panic on a worker goroutine takes the whole daemon down; a good job
// submitted afterwards must still be served.
func TestRateOutsideDomainFailsJobNotDaemon(t *testing.T) {
	m, srv := testServer(t, Config{Workers: 1, QueueDepth: 8})
	for _, bad := range []struct {
		alg  string
		rate float64
	}{{"distributed", 1}, {"distributed", 0.005}, {"slate", 1e6}} {
		spec := repairableSpec()
		spec.Algorithm, spec.Rate = bad.alg, bad.rate
		resp, st := postJob(t, srv, spec)
		if resp.StatusCode == http.StatusBadRequest {
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s rate %v: submit status %d", bad.alg, bad.rate, resp.StatusCode)
		}
		if got := waitTerminal(t, m, st.ID, 30*time.Second); got != StateFailed {
			t.Fatalf("%s rate %v: job ended %s, want failed", bad.alg, bad.rate, got)
		}
		if final := getStatus(t, srv, st.ID); final.Error == "" {
			t.Fatalf("%s rate %v: failed job carries no error", bad.alg, bad.rate)
		}
	}
	resp, st := postJob(t, srv, repairableSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good job after bad ones: submit status %d", resp.StatusCode)
	}
	if got := waitTerminal(t, m, st.ID, 30*time.Second); got != StateDone {
		t.Fatalf("good job after bad ones ended %s, want done", got)
	}
}

// tracePathOf returns j's JSONL trace file path ("" when untraced).
func tracePathOf(j *Job) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracePath
}
