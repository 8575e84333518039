package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/mwu"
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
// source, with Suite) selects the subject; the remaining knobs mirror
// cmd/mwrepair's flags and mwu.Config, with identical defaults, so a
// daemon job with the same scenario/seed/config is byte-identical to the
// one-shot CLI run (see runLabel).
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

	// Algorithm is the MWU realization — any name in mwu.Names: standard |
	// slate | distributed | optimistic | congestion (default standard).
	Algorithm string `json:"algorithm,omitempty"`
	// MaxIter bounds online update cycles (default 2000, as the CLI).
	MaxIter int `json:"maxIter,omitempty"`
	// Workers is the per-job probe-evaluation parallelism (default 8).
	Workers int `json:"workers,omitempty"`
	// Seed drives all job randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Agents, Rate and Convergence mirror mwu.Config (0 = evaluation
	// defaults).
	Agents      int     `json:"agents,omitempty"`
	Rate        float64 `json:"rate,omitempty"`
	Convergence float64 `json:"convergence,omitempty"`

	// FaultRate, Managed and Cutoff mirror the CLI's fault-injection
	// flags.
	FaultRate float64 `json:"faultRate,omitempty"`
	Managed   bool    `json:"managed,omitempty"`
	Cutoff    int     `json:"cutoff,omitempty"`

	// Timeout is the per-job wall-clock budget as a Go duration string
	// ("30s", "5m"); empty means none. On expiry the job returns its
	// best-so-far partial result with state cancelled.
	Timeout string `json:"timeout,omitempty"`
	// Priority orders admission: higher-priority jobs are claimed first;
	// equal priorities run FIFO. Default 0.
	Priority int `json:"priority,omitempty"`

	// Trace requests a per-job JSONL trace (requires the daemon's
	// -trace-dir); TraceSample is the detail-sampling interval (default
	// 1).
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

// normalize fills CLI-parity defaults in place.
func (s *Spec) normalize() {
	if s.Algorithm == "" {
		s.Algorithm = "standard"
	}
	if s.MaxIter == 0 {
		s.MaxIter = 2000
	}
	if s.Workers == 0 {
		s.Workers = 8
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TraceSample == 0 {
		s.TraceSample = 1
	}
}

// timeout parses the Timeout field (normalize-validated).
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

// validate checks the spec and eagerly decodes the custom-program path
// (parse + suite admission checks run the suite once — milliseconds —
// so a malformed job is a 400 at submit, not a failed job minutes
// later). The returned scenario is non-nil only for custom programs;
// registry scenarios are generated lazily in the worker, where the
// generation cost belongs.
func (s *Spec) validate() (*scenario.Scenario, error) {
	s.normalize()
	if (s.Scenario == "") == (s.Program == "") {
		return nil, fmt.Errorf("exactly one of \"scenario\" or \"program\" is required")
	}
	valid := false
	for _, n := range mwu.Names {
		if s.Algorithm == n {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("unknown algorithm %q (want one of %v)", s.Algorithm, mwu.Names)
	}
	if s.MaxIter < 0 || s.Workers < 1 || s.Cutoff < 0 || s.PoolTarget < 0 || s.TraceSample < 1 {
		return nil, fmt.Errorf("maxIter, cutoff and poolTarget must be >= 0; workers and traceSample >= 1")
	}
	if s.Workers > maxWorkers || s.Agents > maxAgents || s.PoolTarget > maxPoolTarget {
		return nil, fmt.Errorf("workers, agents and poolTarget must be at most %d, %d and %d", maxWorkers, maxAgents, maxPoolTarget)
	}
	if !(s.FaultRate >= 0 && s.FaultRate <= 1) {
		return nil, fmt.Errorf("faultRate must be in [0,1], got %v", s.FaultRate)
	}
	if s.Timeout != "" {
		d, err := time.ParseDuration(s.Timeout)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("timeout: not a non-negative duration: %q", s.Timeout)
		}
	}
	if s.Scenario != "" {
		if s.Suite != nil || s.Program != "" {
			return nil, fmt.Errorf("scenario jobs must not carry program/suite")
		}
		if _, err := scenario.ByName(s.Scenario); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if s.Suite == nil {
		return nil, fmt.Errorf("custom program jobs require a suite")
	}
	steps, err := s.Suite.steps()
	if err != nil {
		return nil, err
	}
	if steps > maxSuiteSteps {
		return nil, fmt.Errorf("suite step budget %d (sum of maxSteps, 0 counting %d) exceeds the limit of %d", steps, lang.DefaultMaxSteps, maxSuiteSteps)
	}
	return scenario.FromSource(s.subjectName(), s.Program, s.Suite.suite(), s.PoolTarget, 0)
}

// Job is one repair job owned by the Manager. All mutable fields are
// guarded by mu; accessors return copies so handlers never race with the
// executing worker.
type Job struct {
	// ID is the manager-assigned job identifier ("job-000001").
	ID string
	// Spec is the normalized submission.
	Spec Spec

	// sc is the eagerly decoded custom-program scenario (nil for
	// registry jobs, which generate in the worker).
	sc *scenario.Scenario

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
	Repaired        bool                `json:"repaired"`
	Iterations      int                 `json:"iterations"`
	Agents          int                 `json:"agents,omitempty"`
	Probes          int64               `json:"probes"`
	FitnessEvals    int64               `json:"fitnessEvals"`
	CacheHits       int64               `json:"cacheHits"`
	DedupSuppressed int64               `json:"dedupSuppressed"`
	LearnedArm      int                 `json:"learnedArm,omitempty"`
	Cancelled       bool                `json:"cancelled,omitempty"`
	Degraded        bool                `json:"degraded,omitempty"`
	Faults          string              `json:"faults,omitempty"`
	Patch           []mutation.Mutation `json:"patch,omitempty"`
	PatchIDs        []string            `json:"patchIDs,omitempty"`
	Program         string              `json:"-"` // repaired source, served by the patch endpoint
	PoolSize        int                 `json:"poolSize"`
	PoolEvaluated   int                 `json:"poolEvaluated"`
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

// TracePath returns the job's JSONL trace file path ("" when untraced).
func (j *Job) TracePath() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracePath
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
		Algorithm: j.Spec.Algorithm,
		Seed:      j.Spec.Seed,
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
