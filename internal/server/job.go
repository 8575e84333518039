package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

// State is the job lifecycle state machine:
//
//	queued → running → done | failed | cancelled
//
// queued jobs may also go straight to cancelled (DELETE before a worker
// claims them, or manager shutdown). Terminal states never transition.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the two-phase repair.
	StateRunning State = "running"
	// StateDone: the repair ran to completion (repaired or exhausted).
	StateDone State = "done"
	// StateFailed: the job errored (bad scenario, empty pool, learner
	// construction failure).
	StateFailed State = "failed"
	// StateCancelled: cancelled via DELETE, per-job timeout, or shutdown.
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the POST /v1/jobs request body: what to repair and how hard to
// try. Exactly one of Scenario (a registry name) or Program (TinyLang
// source, with Suite) selects the subject; the repair knobs become a
// core.Job, whose defaults are cmd/mwrepair's, so a daemon job and the
// one-shot CLI run of the same job are byte-identical.
type Spec struct {
	// Scenario is a registry scenario name (see GET /v1/scenarios or
	// `mwrepair -list`). Mutually exclusive with Program.
	Scenario string `json:"scenario,omitempty"`
	// Program is TinyLang source for a custom repair subject; requires
	// Suite. Mutually exclusive with Scenario.
	Program string `json:"program,omitempty"`
	// Name labels a custom Program job (default "custom").
	Name string `json:"name,omitempty"`
	// Suite is the custom program's test suite.
	Suite *SuiteSpec `json:"suite,omitempty"`
	// PoolTarget overrides the phase-1 pool size for custom programs
	// (default scenario.DefaultSourcePoolTarget; registry scenarios use
	// their profile's target).
	PoolTarget int `json:"poolTarget,omitempty"`

	// The repair knobs are core.Job's, with its defaults: Algorithm is
	// any name in mwu.Names (default standard), MaxIter 2000, Workers 8
	// and Seed 1. MaxIter has no admission limit: nothing the daemon
	// allocates grows with it, and Timeout and DELETE bound a job's time.
	Algorithm   string  `json:"algorithm,omitempty"`
	MaxIter     int     `json:"maxIter,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Agents      int     `json:"agents,omitempty"`
	Rate        float64 `json:"rate,omitempty"`
	Convergence float64 `json:"convergence,omitempty"`
	FaultRate   float64 `json:"faultRate,omitempty"`
	Managed     bool    `json:"managed,omitempty"`
	Cutoff      int     `json:"cutoff,omitempty"`

	// Timeout is the per-job wall-clock budget as a Go duration string
	// ("30s", "5m"); empty means none. On expiry the job returns its
	// best-so-far partial result with state cancelled.
	Timeout string `json:"timeout,omitempty"`
	// Priority orders admission: higher-priority jobs are claimed first;
	// equal priorities run FIFO. Default 0.
	Priority int `json:"priority,omitempty"`

	// Trace requests a per-job JSONL trace (requires the daemon's
	// -trace-dir); TraceSample is the detail-sampling interval (default
	// 1). TraceSample has no upper limit: it only thins the probe-level
	// and state events and allocates nothing.
	Trace       bool `json:"trace,omitempty"`
	TraceSample int  `json:"traceSample,omitempty"`
}

// SuiteSpec and TestSpec are the wire form of testsuite.Suite/Test.
type SuiteSpec struct {
	Positive []TestSpec `json:"positive"`
	Negative []TestSpec `json:"negative"`
}

// TestSpec is one test case: input vector, expected output, and an
// optional interpreter step bound.
type TestSpec struct {
	Name     string  `json:"name,omitempty"`
	Input    []int64 `json:"input"`
	Want     []int64 `json:"want"`
	MaxSteps int     `json:"maxSteps,omitempty"`
}

// suite converts the wire form.
func (s *SuiteSpec) suite() *testsuite.Suite {
	out := &testsuite.Suite{}
	for _, t := range s.Positive {
		out.Positive = append(out.Positive, testsuite.Test{Name: t.Name, Input: t.Input, Want: t.Want, MaxSteps: t.MaxSteps})
	}
	for _, t := range s.Negative {
		out.Negative = append(out.Negative, testsuite.Test{Name: t.Name, Input: t.Input, Want: t.Want, MaxSteps: t.MaxSteps})
	}
	return out
}

// timeout parses the Timeout field (validate checked it).
func (s *Spec) timeout() time.Duration {
	if s.Timeout == "" {
		return 0
	}
	d, _ := time.ParseDuration(s.Timeout)
	return d
}

// subjectName is the scenario name the job's run label and status carry.
func (s *Spec) subjectName() string {
	if s.Scenario != "" {
		return s.Scenario
	}
	if s.Name != "" {
		return s.Name
	}
	return "custom"
}

// Admission limits. A spec above any of them is rejected with a 400: each
// bounds what a single POST can make the daemon spend.
const (
	// maxWorkers bounds a job's probe and precompute goroutines.
	maxWorkers = 256
	// maxAgents bounds the learner's per-cycle evaluators (the
	// distributed learner's population): it is the distributed learner's
	// own tractability bound, so every population the learners accept is
	// admitted.
	maxAgents = 150000
	// maxPoolTarget bounds the phase-1 pool size and with it the
	// precompute's attempt cap (200 × target). The largest registry
	// profile targets 5508 entries (5000 options).
	maxPoolTarget = 8192
	// maxTestSteps bounds one test's interpreter step budget (5× the
	// default lang.DefaultMaxSteps).
	maxTestSteps = 1_000_000
	// maxSuiteSteps bounds the suite's total step budget, Σ maxSteps with
	// 0 counting as lang.DefaultMaxSteps. Admission runs a custom suite
	// once inside the HTTP handler, so this caps that run.
	maxSuiteSteps = 5_000_000
)

// steps is the suite's total interpreter step budget: the sum of every
// test's maxSteps, a non-positive one counting as lang.DefaultMaxSteps.
// It rejects a test above maxTestSteps as soon as it meets one, so the
// sum cannot overflow.
func (s *SuiteSpec) steps() (int, error) {
	total := 0
	for _, tests := range [][]TestSpec{s.Positive, s.Negative} {
		for _, t := range tests {
			n := t.MaxSteps
			if n <= 0 {
				n = lang.DefaultMaxSteps
			}
			if n > maxTestSteps {
				return 0, fmt.Errorf("test %q: maxSteps %d exceeds the limit of %d", t.Name, n, maxTestSteps)
			}
			total += n
		}
	}
	return total, nil
}

// validate checks the spec and returns its repair job, eagerly decoding
// the custom-program path (parse + suite admission checks run the suite
// once — milliseconds — so a malformed job is a 400 at submit, not a
// failed job minutes later). The job's Scenario is set only for custom
// programs; registry scenarios are generated lazily in the worker, where
// the generation cost belongs. validate defaults TraceSample to 1.
func (s *Spec) validate() (core.Job, error) {
	s.TraceSample = cmp.Or(s.TraceSample, 1)
	j := core.Job{
		Algorithm: s.Algorithm, Seed: s.Seed, MaxIter: s.MaxIter, Workers: s.Workers,
		Agents: s.Agents, Rate: s.Rate, Convergence: s.Convergence,
		FaultRate: s.FaultRate, Managed: s.Managed, Cutoff: s.Cutoff,
	}.WithDefaults()
	if (s.Scenario == "") == (s.Program == "") {
		return j, fmt.Errorf("exactly one of \"scenario\" or \"program\" is required")
	}
	if !slices.Contains(mwu.Names, j.Algorithm) {
		return j, fmt.Errorf("unknown algorithm %q (want one of %v)", j.Algorithm, mwu.Names)
	}
	if j.MaxIter < 0 || j.Workers < 1 || j.Cutoff < 0 || s.PoolTarget < 0 || s.TraceSample < 1 {
		return j, fmt.Errorf("maxIter, cutoff and poolTarget must be >= 0; workers and traceSample >= 1")
	}
	if j.Workers > maxWorkers || j.Agents > maxAgents || s.PoolTarget > maxPoolTarget {
		return j, fmt.Errorf("workers, agents and poolTarget must be at most %d, %d and %d", maxWorkers, maxAgents, maxPoolTarget)
	}
	if !(j.FaultRate >= 0 && j.FaultRate <= 1) {
		return j, fmt.Errorf("faultRate must be in [0,1], got %v", j.FaultRate)
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil || d < 0 {
			return j, fmt.Errorf("timeout: not a non-negative duration: %q", s.Timeout)
		}
	}
	if s.Scenario != "" {
		if s.Suite != nil || s.Program != "" {
			return j, fmt.Errorf("scenario jobs must not carry program/suite")
		}
		_, err := scenario.ByName(s.Scenario)
		return j, err
	}
	if s.Suite == nil {
		return j, fmt.Errorf("custom program jobs require a suite")
	}
	steps, err := s.Suite.steps()
	if err != nil {
		return j, err
	}
	if steps > maxSuiteSteps {
		return j, fmt.Errorf("suite step budget %d (sum of maxSteps, 0 counting %d) exceeds the limit of %d", steps, lang.DefaultMaxSteps, maxSuiteSteps)
	}
	j.Scenario, err = scenario.FromSource(s.subjectName(), s.Program, s.Suite.suite(), s.PoolTarget, 0)
	return j, err
}

// Job is one repair job owned by the Manager. All mutable fields are
// guarded by mu; accessors return copies so handlers never race with the
// executing worker.
type Job struct {
	// ID is the manager-assigned job identifier ("job-000001").
	ID string
	// Spec is the submission, TraceSample defaulted.
	Spec Spec

	// job is the spec's repair job, defaults filled. Its Scenario is the
	// eagerly decoded custom program, nil for registry jobs (generated in
	// the worker).
	job core.Job

	seq   int64 // admission order: FIFO tie-break within a priority
	index int   // heap index; -1 once claimed or removed

	mu         sync.Mutex
	state      State
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	progress   core.Progress
	hasProgr   bool
	result     *Result
	errMsg     string
	tracePath  string
	cancel     context.CancelFunc

	done chan struct{}
}

// Result is the terminal summary of a finished job — the same counters
// cmd/mwrepair prints, plus the patch.
type Result struct {
	Repaired      bool                `json:"repaired"`
	Iterations    int                 `json:"iterations"`
	Agents        int                 `json:"agents,omitempty"`
	Probes        int64               `json:"probes"`
	FitnessEvals  int64               `json:"fitnessEvals"`
	CacheHits     int64               `json:"cacheHits"`
	LearnedArm    int                 `json:"learnedArm,omitempty"`
	Cancelled     bool                `json:"cancelled,omitempty"`
	Degraded      bool                `json:"degraded,omitempty"`
	Faults        string              `json:"faults,omitempty"`
	Patch         []mutation.Mutation `json:"patch,omitempty"`
	PatchIDs      []string            `json:"patchIDs,omitempty"`
	Program       string              `json:"-"` // repaired source, served by the patch endpoint
	PoolSize      int                 `json:"poolSize"`
	PoolEvaluated int                 `json:"poolEvaluated"`
	// Persistence wins (zero without a daemon -store): precompute safety
	// checks answered from the shared store, cache entries warm-started
	// into the online phase, and lookups those entries answered.
	PoolStoreHits int64 `json:"poolStoreHits,omitempty"`
	WarmEntries   int64 `json:"warmEntries,omitempty"`
	WarmHits      int64 `json:"warmHits,omitempty"`
	// Scenario-family extras (zero for paper-family subjects): drift
	// steps applied mid-run and the congestion-priced probe cost.
	DriftSteps     int     `json:"driftSteps,omitempty"`
	CongestionCost float64 `json:"congestionCost,omitempty"`
	MaxLoad        int64   `json:"maxLoad,omitempty"`
}

// resultOf is the job result of a finished core.RunJob: the repair's
// counters and patch, and the phase-1 pool's size and cost.
func resultOf(pl *pool.Pool, res core.Result) *Result {
	st := pl.Stats()
	out := &Result{
		Repaired:       res.Repaired,
		Iterations:     res.Iterations,
		Agents:         res.Agents,
		Probes:         res.Probes,
		FitnessEvals:   res.FitnessEvals,
		CacheHits:      res.CacheHits,
		LearnedArm:     res.LearnedArm,
		Cancelled:      res.Cancelled,
		Degraded:       res.Degraded,
		PoolSize:       pl.Size(),
		PoolEvaluated:  st.Evaluated,
		PoolStoreHits:  st.StoreHits,
		WarmEntries:    res.WarmEntries,
		WarmHits:       res.WarmHits,
		DriftSteps:     res.DriftSteps,
		CongestionCost: res.CongestionCost,
		MaxLoad:        res.MaxLoad,
	}
	if res.Faults.Any() {
		out.Faults = res.Faults.String()
	}
	if res.Repaired {
		out.Patch = res.Patch
		for _, m := range res.Patch {
			out.PatchIDs = append(out.PatchIDs, m.ID())
		}
		out.Program = res.Program.String()
	}
	return out
}

// Status is the GET /v1/jobs/{id} response body.
type Status struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Scenario  string `json:"scenario"`
	Algorithm string `json:"algorithm"`
	Seed      uint64 `json:"seed"`
	Priority  int    `json:"priority,omitempty"`

	QueuedAt   string `json:"queuedAt,omitempty"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`

	Progress *ProgressStatus `json:"progress,omitempty"`
	Result   *Result         `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
	Trace    string          `json:"trace,omitempty"`
}

// ProgressStatus is the wire form of core.Progress.
type ProgressStatus struct {
	Iter         int     `json:"iter"`
	Probes       int64   `json:"probes"`
	FitnessEvals int64   `json:"fitnessEvals"`
	CacheHits    int64   `json:"cacheHits"`
	SafeProbes   int64   `json:"safeProbes"`
	BestArm      int     `json:"bestArm"`
	BestShare    float64 `json:"bestShare"`
	Degraded     bool    `json:"degraded,omitempty"`
	Faults       string  `json:"faults,omitempty"`
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns a copy of the terminal result (nil before completion).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil
	}
	r := *j.result
	return &r
}

// setProgress records a progress snapshot (the OnProgress callback).
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.hasProgr = true
	j.mu.Unlock()
}

// status renders the job for the HTTP API.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Scenario:  j.Spec.subjectName(),
		Algorithm: j.job.Algorithm,
		Seed:      j.job.Seed,
		Priority:  j.Spec.Priority,
		Error:     j.errMsg,
		Trace:     j.tracePath,
	}
	if !j.queuedAt.IsZero() {
		st.QueuedAt = j.queuedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	if j.hasProgr {
		p := j.progress
		ps := &ProgressStatus{
			Iter:         p.Iter,
			Probes:       p.Probes,
			FitnessEvals: p.FitnessEvals,
			CacheHits:    p.CacheHits,
			SafeProbes:   p.SafeProbes,
			BestArm:      p.BestArm,
			BestShare:    p.BestShare,
			Degraded:     p.Degraded(),
		}
		if p.Faults.Any() {
			ps.Faults = p.Faults.String()
		}
		st.Progress = ps
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}
