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
// Determinism is preserved end to end: a job runs core.RunJob, the one
// function `mwrepair` runs, under the same run label (core.Job.Label), so
// a daemon job's patch and optional JSONL trace are byte-identical to the
// equivalent `mwrepair` invocation. The end-to-end test asserts that.
package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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

	mu   sync.Mutex
	cond *sync.Cond
	// jobs is the job table in admission order: job-N is jobs[N-1].
	jobs     []*Job
	queue    jobHeap
	running  int // jobs in StateRunning, mirrored by the running gauge
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
// are log-spaced throughout: each bucket's width stays proportional to
// the values it holds.
var latencyBoundsMs = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10_000, 30_000, 60_000, 300_000, 600_000,
}

// NewManager builds a manager and starts its worker fleet.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg: cfg,

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
	job, err := spec.validate()
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
	seq := int64(len(m.jobs)) + 1
	j := &Job{
		ID:       fmt.Sprintf("job-%06d", seq),
		Spec:     spec,
		job:      job,
		seq:      seq,
		state:    StateQueued,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	m.jobs = append(m.jobs, j)
	heap.Push(&m.queue, j)
	m.queueDepth.Set(float64(len(m.queue)))
	m.cond.Signal()
	m.mu.Unlock()
	m.accepted.Inc()
	m.logf("job %s: queued (scenario=%s alg=%s seed=%d prio=%d)",
		j.ID, spec.subjectName(), job.Algorithm, job.Seed, spec.Priority)
	return j, nil
}

// Get returns the job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(id)
}

// lookup indexes the job table by the sequence number in id; m.mu held.
func (m *Manager) lookup(id string) (*Job, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 1 || n > len(m.jobs) || m.jobs[n-1].ID != id {
		return nil, false
	}
	return m.jobs[n-1], true
}

// JobsPage returns the admission-ordered job window [offset, offset+limit)
// plus the total table size; limit 0 means "to the end".
func (m *Manager) JobsPage(offset, limit int) ([]*Job, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := len(m.jobs)
	offset = min(offset, total)
	end := total
	if limit > 0 {
		end = min(offset+limit, total)
	}
	// Capped capacity: a caller's append copies instead of writing into
	// the table.
	return m.jobs[offset:end:end], total
}

// ErrJobFinished is returned by Cancel for jobs already in a terminal
// state (HTTP 409).
var ErrJobFinished = errors.New("server: job already finished")

// Cancel cancels a queued or running job. Queued jobs are removed from
// the admission queue and finish immediately; running jobs get their
// context cancelled and finish with the best-so-far partial result.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.lookup(id)
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

// runJob executes one claimed job end to end: the repair (execute) and
// the terminal bookkeeping around it.
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
	m.addRunning(1)
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
	m.addRunning(-1)
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
	reg.Counter("server.store.bytes").Set(st.Bytes)
	reg.Counter("server.store.appends").Set(st.Appends)
	reg.Counter("server.store.superseded").Set(st.Superseded)
	reg.Counter("server.store.dropped").Set(st.Dropped)
	reg.Counter("server.store.compactions").Set(st.Compactions)
}

// millis converts a duration to fractional milliseconds — warm custom-
// program jobs finish in well under 1ms, and integer truncation would
// fold them all into 0.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addRunning moves the running-job count by d as a job enters (+1) or
// leaves (-1) StateRunning. The gauge is set under the same lock, so
// concurrent finishes cannot leave it on a stale count.
func (m *Manager) addRunning(d int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running += d
	m.runningGauge.Set(float64(m.running))
}

// execute runs the job's repair through core.RunJob, the function
// cmd/mwrepair runs, with the job's trace sink, progress callback and the
// shared store attached.
func (m *Manager) execute(ctx context.Context, j *Job) (*Result, error) {
	job := j.job
	if job.Scenario == nil {
		job.Scenario = scenario.Generate(scenario.MustByName(j.Spec.Scenario))
	}

	// Per-job trace sink. The tracer closes (flushing the JSONL buffer)
	// before execute returns — including on cancellation — so SIGTERM
	// never truncates a trace.
	if j.Spec.Trace && m.cfg.TraceDir != "" {
		path := filepath.Join(m.cfg.TraceDir, j.ID+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		job.Trace = obs.New(obs.NewJSONL(f), obs.WithRun(job.Label()), obs.WithSample(j.Spec.TraceSample))
		defer func() {
			if err := job.Trace.Close(); err != nil {
				m.logf("job %s: closing trace: %v", j.ID, err)
			}
		}()
		j.mu.Lock()
		j.tracePath = path
		j.mu.Unlock()
	}
	job.OnProgress, job.Store = j.setProgress, m.cfg.Store

	pl, res, err := core.RunJob(ctx, job)
	if err != nil {
		return nil, err
	}
	if m.cfg.Store != nil {
		// Accumulate cross-job persistence wins and refresh the store
		// gauges the /debug/metrics and /healthz endpoints serve.
		m.storeHits.Add(pl.Stats().StoreHits)
		m.warmEntries.Add(res.WarmEntries)
		m.exportStoreStats()
	}
	return resultOf(pl, res), nil
}
