// Package server turns the MWRepair library into a long-running
// repair-as-a-service daemon (cmd/mwrepaird): an async job manager with a
// bounded worker fleet and priority admission queue, HTTP/JSON handlers
// over it, and the middleware a service needs (request IDs, logging,
// panic recovery).
//
// The paper's contribution is *parallel* repair — MWU learners steering a
// fleet of probe evaluators — and that engineering only pays off when
// many repair jobs share one warm process: the fitness cache, the
// persistent worker pools, and the precompute amortization
// (ROADMAP items 1–2) all assume a daemon. Design follows the classic
// object-server shape (bounded concurrency, FIFO-within-priority
// admission, 429 + Retry-After under overload, drain-on-SIGTERM) adapted
// to repair jobs whose unit of work is minutes of CPU rather than
// milliseconds of disk.
//
// Determinism is preserved end to end: a job runs the exact code path of
// the one-shot CLI — same RNG split discipline, same run label
// (obs.RunID identifies the logical run, not the process) — so a
// daemon-run repair's patch and optional JSONL trace are byte-identical
// to the equivalent `mwrepair` invocation. The end-to-end test asserts
// exactly that.
package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Config sizes the manager.
type Config struct {
	// Workers is the concurrent repair-job fleet size (default 2). Each
	// job additionally runs Spec.Workers probe-evaluation goroutines, so
	// total process parallelism is roughly Workers × Spec.Workers.
	Workers int
	// QueueDepth bounds the admission queue; a submit beyond it is
	// rejected with ErrQueueFull (HTTP 429). Default 16.
	QueueDepth int
	// TraceDir, when non-empty, is where per-job JSONL traces are
	// written (<TraceDir>/<jobID>.jsonl, for jobs with Spec.Trace set).
	TraceDir string
	// DrainTimeout is how long Shutdown lets running jobs finish before
	// cancelling their contexts (default 10s). Cancelled jobs still
	// return best-so-far partial results and flush their traces.
	DrainTimeout time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// Registry receives the daemon's service metrics under "server.":
	// jobs accepted/rejected/completed/failed/cancelled, queue depth,
	// running-job gauge, and a job-latency histogram. Nil creates a
	// private one.
	Registry *obs.Registry
	// Store, when non-nil, is the persistent evaluation store every job
	// shares: pool builds and online repairs warm-start from it and
	// persist their verdicts into it, so repeated scenarios (and daemon
	// restarts over the same data dir) skip suite executions earlier jobs
	// already paid for. Job results stay byte-identical to storeless
	// runs. The daemon owns the store's lifecycle; the manager only uses
	// it.
	Store *store.Store
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// Sentinel admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull: the admission queue is at QueueDepth (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining: the manager is shutting down (HTTP 503).
	ErrDraining = errors.New("server: draining, not admitting jobs")
)

// jobHeap orders queued jobs by descending priority, FIFO within a
// priority level (ascending admission sequence).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].Spec.Priority != h[b].Spec.Priority {
		return h[a].Spec.Priority > h[b].Spec.Priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// Manager owns the job table, the admission queue, and the worker fleet.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	queue    jobHeap
	seq      int64
	draining bool

	wg sync.WaitGroup // worker goroutines

	accepted, rejected               *obs.Counter
	completed, failed, cancelledJobs *obs.Counter
	queueDepth, runningGauge         *obs.Gauge
	latency, queueWait, e2eLatency   *obs.Histogram
	// Cross-job persistence accounting (zero without Config.Store):
	// cumulative precompute safety checks answered from the store and
	// online cache entries warm-started from it.
	storeHits, warmEntries *obs.Counter
}

// latencyBoundsMs buckets the per-job latency histograms (queue-wait,
// execution, end-to-end). Repair jobs span four orders of magnitude —
// warm-store custom programs finish in single-digit milliseconds, cold
// registry scenarios take seconds to minutes — and an idle worker picks a
// job up within tens of microseconds, so the bounds start at 10 µs and
// are log-spaced throughout, keeping Histogram.Quantile's interpolation
// error proportional to the value it estimates.
var latencyBoundsMs = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10_000, 30_000, 60_000, 300_000, 600_000,
}

// NewManager builds a manager and starts its worker fleet.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:  cfg,
		jobs: make(map[string]*Job),

		accepted:      cfg.Registry.Counter("server.jobs.accepted"),
		rejected:      cfg.Registry.Counter("server.jobs.rejected"),
		completed:     cfg.Registry.Counter("server.jobs.completed"),
		failed:        cfg.Registry.Counter("server.jobs.failed"),
		cancelledJobs: cfg.Registry.Counter("server.jobs.cancelled"),
		queueDepth:    cfg.Registry.Gauge("server.queue.depth"),
		runningGauge:  cfg.Registry.Gauge("server.jobs.running"),
		latency:       cfg.Registry.Histogram("server.job.latency_ms", latencyBoundsMs),
		queueWait: cfg.Registry.Histogram("server.job.queue_wait_ms",
			latencyBoundsMs),
		e2eLatency:  cfg.Registry.Histogram("server.job.e2e_ms", latencyBoundsMs),
		storeHits:   cfg.Registry.Counter("pool.store_hits"),
		warmEntries: cfg.Registry.Counter("cache.warm_entries"),
	}
	m.cond = sync.NewCond(&m.mu)
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the metrics registry the manager exports into.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Registry }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Submit validates and admits a job. Validation failures return plain
// errors (HTTP 400); a full queue returns ErrQueueFull; a draining
// manager returns ErrDraining.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	sc, err := spec.validate()
	if err != nil {
		m.rejected.Inc()
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrQueueFull
	}
	m.seq++
	j := &Job{
		ID:       fmt.Sprintf("job-%06d", m.seq),
		Spec:     spec,
		sc:       sc,
		seq:      m.seq,
		state:    StateQueued,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	m.jobs[j.ID] = j
	heap.Push(&m.queue, j)
	m.queueDepth.Set(float64(len(m.queue)))
	m.cond.Signal()
	m.mu.Unlock()
	m.accepted.Inc()
	m.logf("job %s: queued (scenario=%s alg=%s seed=%d prio=%d)",
		j.ID, spec.subjectName(), spec.Algorithm, spec.Seed, spec.Priority)
	return j, nil
}

// Get returns the job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// JobsPage returns the admission-ordered job window [offset, offset+limit)
// plus the total table size; limit 0 means "to the end". The sort is
// O(n log n) — a load test leaves tens of thousands of terminal jobs in
// the table, and the insertion sort this replaces went quadratic exactly
// when a monitoring poll of GET /v1/jobs was most expensive to serve.
func (m *Manager) JobsPage(offset, limit int) ([]*Job, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	total := len(out)
	if offset > total {
		offset = total
	}
	out = out[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out, total
}

// ErrJobFinished is returned by Cancel for jobs already in a terminal
// state (HTTP 409).
var ErrJobFinished = errors.New("server: job already finished")

// Cancel cancels a queued or running job. Queued jobs are removed from
// the admission queue and finish immediately; running jobs get their
// context cancelled and finish with the best-so-far partial result.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("server: unknown job %q", id)
	}
	if j.index >= 0 {
		heap.Remove(&m.queue, j.index)
		m.queueDepth.Set(float64(len(m.queue)))
	}
	m.mu.Unlock()

	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return ErrJobFinished
	case j.cancel != nil: // running: unwind through the repair loop
		j.cancel()
		j.mu.Unlock()
	default: // queued (or claimed but not yet started)
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		j.finishedAt = time.Now()
		close(j.done)
		j.mu.Unlock()
		m.cancelledJobs.Inc()
		m.logf("job %s: cancelled while queued", id)
	}
	return nil
}

// Draining reports whether Shutdown has begun (healthz turns 503).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown drains the manager: admission stops (Submit returns
// ErrDraining), still-queued jobs are cancelled without running, and
// running jobs get Config.DrainTimeout (clamped to ctx's deadline) to
// finish before their contexts are cancelled — at which point they
// return best-so-far partial results. Shutdown returns once every worker
// has exited and every job trace is flushed; the error reports whether
// the drain needed the cancellation hammer.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	var dropped []*Job
	for len(m.queue) > 0 {
		dropped = append(dropped, heap.Pop(&m.queue).(*Job))
	}
	m.queueDepth.Set(0)
	m.cond.Broadcast()
	m.mu.Unlock()

	for _, j := range dropped {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateCancelled
			j.errMsg = "cancelled at shutdown"
			j.finishedAt = time.Now()
			close(j.done)
		}
		j.mu.Unlock()
		m.cancelledJobs.Inc()
	}
	if n := len(dropped); n > 0 {
		m.logf("shutdown: cancelled %d queued job(s)", n)
	}

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()

	drain := time.NewTimer(m.cfg.DrainTimeout)
	defer drain.Stop()
	select {
	case <-workersDone:
		m.logf("shutdown: drained cleanly")
		return nil
	case <-drain.C:
	case <-ctx.Done():
	}

	// Drain budget exhausted: cancel every running job and wait for the
	// workers to unwind (fast — the repair loops poll their contexts).
	var cancelled int
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.cancel != nil && !j.state.Terminal() {
			j.cancel()
			cancelled++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	m.logf("shutdown: drain timeout, cancelled %d running job(s)", cancelled)
	<-workersDone
	return fmt.Errorf("server: drain timeout: cancelled %d running job(s)", cancelled)
}

// next blocks until a job is claimable or the manager drains; nil means
// "worker should exit".
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.draining {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return nil
	}
	j := heap.Pop(&m.queue).(*Job)
	m.queueDepth.Set(float64(len(m.queue)))
	return j
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// runLabel is the deterministic run ID a job's trace carries. The parts
// match cmd/mwrepair's exactly — obs.RunID identifies the logical run,
// not the process — which is what makes a daemon job's trace
// byte-comparable against the one-shot CLI's.
func runLabel(seed uint64, scenarioName, algorithm string) string {
	return obs.RunID(seed, "mwrepair", scenarioName, algorithm)
}

// runJob executes one claimed job end to end: trace sink, scenario
// decode, phase-1 pool build, phase-2 online repair, terminal bookkeeping.
// The execution sequence (RNG splits, config assembly) mirrors
// cmd/mwrepair statement for statement; divergence here breaks the
// daemon-vs-CLI byte-identity guarantee and its end-to-end test.
func (m *Manager) runJob(j *Job) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := base
	if d := j.Spec.timeout(); d > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(base, d)
		defer tcancel()
	}

	j.mu.Lock()
	if j.state.Terminal() { // cancelled between claim and start
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancel = cancel // cancelling base propagates to the timeout child
	queueWait := j.startedAt.Sub(j.queuedAt)
	j.mu.Unlock()
	m.queueWait.Observe(millis(queueWait))
	m.runningGauge.Set(m.runningCount())
	m.logf("job %s: running", j.ID)

	res, err := m.execute(ctx, j)

	j.mu.Lock()
	j.finishedAt = time.Now()
	j.cancel = nil
	switch {
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		m.failed.Inc()
	case res.Cancelled:
		j.state = StateCancelled
		j.result = res
		m.cancelledJobs.Inc()
	default:
		j.state = StateDone
		j.result = res
		m.completed.Inc()
	}
	state := j.state
	elapsed := j.finishedAt.Sub(j.startedAt)
	e2e := j.finishedAt.Sub(j.queuedAt)
	close(j.done)
	j.mu.Unlock()

	m.latency.Observe(millis(elapsed))
	m.e2eLatency.Observe(millis(e2e))
	m.runningGauge.Set(m.runningCount())
	if err != nil {
		m.logf("job %s: failed after %v: %v", j.ID, elapsed.Round(time.Millisecond), err)
	} else {
		m.logf("job %s: %s after %v (repaired=%v iterations=%d probes=%d)",
			j.ID, state, elapsed.Round(time.Millisecond), res.Repaired, res.Iterations, res.Probes)
	}
}

// Store returns the shared persistent store, nil when the daemon runs
// without one.
func (m *Manager) Store() *store.Store { return m.cfg.Store }

// exportStoreStats publishes the shared store's current state under
// "server.store." so /debug/metrics tracks persistence alongside the job
// counters. Called after each store-backed job; cheap (a directory
// listing plus atomic reads).
func (m *Manager) exportStoreStats() {
	st := m.cfg.Store.Stats()
	reg := m.cfg.Registry
	reg.Counter("server.store.packs").Set(int64(st.Packs))
	reg.Counter("server.store.quarantined_packs").Set(int64(st.QuarantinedPacks))
	reg.Counter("server.store.eval_records").Set(int64(st.EvalRecords))
	reg.Counter("server.store.pool_records").Set(int64(st.PoolRecords))
	reg.Counter("server.store.bytes").Set(st.Bytes)
	reg.Counter("server.store.appends").Set(st.Appends)
	reg.Counter("server.store.superseded").Set(st.Superseded)
	reg.Counter("server.store.dropped").Set(st.Dropped)
	reg.Counter("server.store.snapshots").Set(st.Snapshots)
	reg.Counter("server.store.compactions").Set(st.Compactions)
}

// millis converts a duration to fractional milliseconds — warm custom-
// program jobs finish in well under 1ms, and integer truncation would
// fold them all into 0.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runningCount counts non-terminal, non-queued jobs (for the gauge).
func (m *Manager) runningCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.State() == StateRunning {
			n++
		}
	}
	return float64(n)
}

// execute is the two-phase repair, mirroring cmd/mwrepair's main.
func (m *Manager) execute(ctx context.Context, j *Job) (*Result, error) {
	spec := j.Spec

	// Per-job trace sink. The tracer closes (flushing the JSONL buffer)
	// before execute returns — including on cancellation — so SIGTERM
	// never truncates a trace.
	var tracer *obs.Tracer
	if spec.Trace && m.cfg.TraceDir != "" {
		path := filepath.Join(m.cfg.TraceDir, j.ID+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		tracer = obs.New(obs.NewJSONL(f),
			obs.WithRun(runLabel(spec.Seed, spec.subjectName(), spec.Algorithm)),
			obs.WithSample(spec.TraceSample))
		defer func() {
			if err := tracer.Close(); err != nil {
				m.logf("job %s: closing trace: %v", j.ID, err)
			}
		}()
		j.mu.Lock()
		j.tracePath = path
		j.mu.Unlock()
	}

	// Decode the subject: eagerly validated custom program, or registry
	// scenario generated here (generation is deterministic but costly).
	sc := j.sc
	var prof scenario.Profile
	if sc == nil {
		prof = scenario.MustByName(spec.Scenario)
		sc = scenario.Generate(prof)
	} else {
		prof = sc.Profile
	}

	// Phase 1 + phase 2, with cmd/mwrepair's exact RNG split discipline.
	r := rng.New(spec.Seed)
	pl := sc.BuildPoolStored(ctx, spec.Workers, r.Split(), tracer, m.cfg.Store)
	st := pl.Stats()
	if pl.Size() == 0 {
		if ctx.Err() != nil {
			return &Result{Cancelled: true, PoolEvaluated: st.Evaluated}, nil
		}
		return nil, fmt.Errorf("pool build found no safe mutations (%d candidates evaluated)", st.Evaluated)
	}

	cfg := core.Config{
		MaxIter:          spec.MaxIter,
		Workers:          spec.Workers,
		MaxX:             prof.Options,
		StragglerCutoff:  spec.Cutoff,
		Trace:            tracer,
		OnProgress:       j.setProgress,
		Store:            m.cfg.Store,
		Drift:            sc.Drift,
		CongestionLambda: prof.CongestionLambda,
	}
	if spec.FaultRate > 0 {
		cfg.Faults = faults.New(faults.Uniform(spec.Seed, spec.FaultRate))
	}
	if spec.Managed {
		cfg.Policies = faults.DefaultPolicies()
	}

	// Inline core.RepairWithAlgorithm so Agents/Rate/Convergence
	// overrides reach the learner. The CLI hands RepairWithAlgorithm a
	// child RNG (r.Split()) which is then split again for the learner and
	// the run; reproduce that exact two-level split order — flattening it
	// changes every downstream random draw and breaks byte-identity.
	r2 := r.Split()
	k := core.Arms(pl, cfg)
	learner, err := mwu.NewLearner(mwu.Config{
		Algorithm:   spec.Algorithm,
		K:           k,
		Agents:      spec.Agents,
		Rate:        spec.Rate,
		Convergence: spec.Convergence,
	}, r2.Split())
	if err != nil {
		return nil, err
	}
	res := core.Repair(ctx, pl, sc.Suite, learner, r2.Split(), cfg)

	out := &Result{
		Repaired:        res.Repaired,
		Iterations:      res.Iterations,
		Agents:          res.Agents,
		Probes:          res.Probes,
		FitnessEvals:    res.FitnessEvals,
		CacheHits:       res.CacheHits,
		DedupSuppressed: res.DedupSuppressed,
		LearnedArm:      res.LearnedArm,
		Cancelled:       res.Cancelled,
		Degraded:        res.Degraded,
		PoolSize:        pl.Size(),
		PoolEvaluated:   st.Evaluated,
		PoolStoreHits:   st.StoreHits,
		WarmEntries:     res.WarmEntries,
		WarmHits:        res.WarmHits,
		DriftSteps:      res.DriftSteps,
		CongestionCost:  res.CongestionCost,
		MaxLoad:         res.MaxLoad,
	}
	if m.cfg.Store != nil {
		// Accumulate cross-job persistence wins and refresh the store
		// gauges the /debug/metrics and /healthz endpoints serve.
		m.storeHits.Add(st.StoreHits)
		m.warmEntries.Add(res.WarmEntries)
		m.exportStoreStats()
	}
	if res.Faults.Any() {
		out.Faults = res.Faults.String()
	}
	if res.Repaired {
		out.Patch = res.Patch
		for _, mu := range res.Patch {
			out.PatchIDs = append(out.PatchIDs, mu.ID())
		}
		out.Program = res.Program.String()
	}
	return out, nil
}
