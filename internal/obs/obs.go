// Package obs is the repository's observability layer: iteration-level
// tracing and a counters/gauges/histograms registry for every driver in
// the system — the MWU online loop (internal/mwu), the precompute phase
// (internal/pool), the repair pipeline (internal/core), the serial
// baselines, and the experiment harness.
//
// The paper's entire empirical story is about measuring the three MWU
// realizations (Table I communication and memory, Table IV
// CPU-iterations, Fig. 4b's reward landscape), yet terminal aggregates
// cannot show weight dynamics, probe latency, cache behaviour, or fault
// recovery *during* a run — and constant-step MWU dynamics are known to
// be non-trivial mid-run (limit cycles, chaos). This package makes the
// trajectory itself observable without giving up the repository's
// reproducibility discipline:
//
//   - A Tracer emits typed per-iteration events (iteration start/end,
//     probe issued/completed with virtual-tick latency, weight update,
//     fault injected/recovered, cache samples, convergence checks,
//     learner-state telemetry) to a pluggable Sink — a buffered JSONL
//     file sink, an in-memory ring buffer for tests, or a no-op sink
//     that reduces every emission site to a single branch.
//   - Traces are deterministic: event payloads carry virtual ticks and
//     seed-derived run IDs, never wall-clock times, goroutine IDs, or
//     worker counts, and drivers emit only from their single coordinator
//     goroutine after the iteration barrier. Two runs with the same seed
//     produce byte-identical JSONL streams at any worker count — the
//     same guarantee internal/faults gives for fault schedules.
//   - A Registry unifies the ad-hoc counters scattered across
//     mwu.Metrics, pool.Stats, faults.Stats, and the fitness cache into
//     one named namespace, exportable as JSON or published via expvar
//     next to an opt-in net/http/pprof endpoint (see debug.go).
//
// The package depends only on the standard library, so every layer of the
// repository can import it without cycles.
package obs

import (
	"fmt"
	"sync"
)

// Type tags one trace event. The set is closed: ValidateJSONL rejects
// events of unknown type, so adding a type means extending KnownTypes.
type Type string

const (
	// TypeRunStart opens a run: algorithm, option count, per-iteration
	// agents, and the iteration limit (in N).
	TypeRunStart Type = "run_start"
	// TypeRunEnd closes a run; Kind carries the end reason ("converged",
	// "stopped", "maxiter", "cancelled", "dead", "error"), Leader/Prob the
	// final choice, Iter the executed cycles.
	TypeRunEnd Type = "run_end"
	// TypeIterStart and TypeIterEnd bracket one update cycle.
	TypeIterStart Type = "iter_start"
	TypeIterEnd   Type = "iter_end"
	// TypeProbe is one probe assignment (Slot evaluates Arm); emitted on
	// sampled iterations only.
	TypeProbe Type = "probe"
	// TypeProbeDone is the completion of a probe: Value is the reward,
	// Tick the virtual-tick latency (0 on the fault-free path). Sampled
	// iterations only.
	TypeProbeDone Type = "probe_done"
	// TypeUpdate is one weight update: N slots consumed, Value the summed
	// reward of the arrived slots.
	TypeUpdate Type = "update"
	// TypeFault is one injected fault at (Iter, Slot, Attempt); Kind names
	// the fault kind. Emitted on every iteration, sampled or not.
	TypeFault Type = "fault"
	// TypeRecover marks a slot whose probe completed despite earlier
	// faults (retry succeeded, straggler arrived, hedge won); Tick is the
	// virtual arrival time.
	TypeRecover Type = "recover"
	// TypeStall marks an update cycle wedged by a silent unresolved
	// failure on a barriered learner: CPU burned, no update applied.
	TypeStall Type = "stall"
	// TypeCache is a cumulative fitness-cache sample: N completed probe
	// lookups so far (cache hits plus executed evaluations). The sum —
	// rather than the raw hit count — is what keeps the stream
	// deterministic: it is invariant across worker counts and across
	// cache warmth, since a store-warmed cache converts evaluations into
	// hits one for one. Deduplication, cache-lock contention and the hit/eval
	// split are properties of the physical execution, so they are
	// exported through the Registry, never through the deterministic
	// event stream.
	TypeCache Type = "cache"
	// TypeDrift marks one suite-drift step applied at an update-cycle
	// boundary: Kind names the change ("tests-added", "fault-moved",
	// "reweighted"), N the probe-count threshold that armed it, Iter the
	// cycle it fired on. Drift steps fire on the driver goroutine from
	// worker-invariant probe counts, so the event — like every other —
	// lands at the same point of the stream at any worker count. Emitted
	// on every firing, sampled or not: a drift step changes what every
	// subsequent evaluation means, so the stream must record it.
	TypeDrift Type = "drift"
	// TypeConv is the per-iteration convergence check: Leader, Prob, and
	// Kind ("converged" once the criterion holds).
	TypeConv Type = "conv"
	// TypeState is the sampled learner-state telemetry: weight entropy
	// (Entropy, in nats), leader share (Prob), support (options holding
	// mass), N distinct arms probed this cycle, and Hist, the
	// agent-population / weight-mass histogram (log₂-spaced shares).
	TypeState Type = "state"
	// TypeCrash and TypeRestart are agent lifecycle events of the
	// message-passing protocol (Slot is the agent ID).
	TypeCrash   Type = "crash"
	TypeRestart Type = "restart"
	// TypePoolBatch is one precompute batch: N candidates evaluated,
	// Safe found safe, Attempts/Dups the cumulative generation ledger.
	TypePoolBatch Type = "pool_batch"
)

// KnownTypes is the closed event-type set, in documentation order.
var KnownTypes = []Type{
	TypeRunStart, TypeRunEnd, TypeIterStart, TypeIterEnd,
	TypeProbe, TypeProbeDone, TypeUpdate, TypeFault, TypeRecover,
	TypeStall, TypeCache, TypeDrift, TypeConv, TypeState, TypeCrash,
	TypeRestart, TypePoolBatch,
}

// Event is one trace record. The struct is flat and fixed so
// encoding/json emits fields in a stable order with stable formatting —
// the byte-identity guarantee rests on it. Optional fields use omitempty;
// Seq, Type and Iter are always present. No field may ever carry a
// wall-clock time, a goroutine identity, or a worker count.
type Event struct {
	// Seq is the emission sequence number, dense from 1 per tracer.
	Seq uint64 `json:"seq"`
	// Run is the seed-derived run label (RunID), constant per run scope.
	Run string `json:"run,omitempty"`
	// Type tags the event.
	Type Type `json:"type"`
	// Iter is the update cycle (or pool batch index) the event
	// belongs to; 0 for run-scoped events.
	Iter int `json:"iter"`
	// Slot is the evaluator slot or agent ID.
	Slot int `json:"slot,omitempty"`
	// Arm is the option probed.
	Arm int `json:"arm,omitempty"`
	// Attempt is the probe attempt index of a fault decision.
	Attempt int `json:"attempt,omitempty"`
	// Tick is a virtual-tick latency or arrival time (never wall-clock).
	Tick int `json:"tick,omitempty"`
	// Kind is a small string label: fault kind, end reason.
	Kind string `json:"kind,omitempty"`
	// Value is the event's scalar payload (reward, summed reward).
	Value float64 `json:"value,omitempty"`
	// N is the event's count payload (slots updated, cache hits,
	// candidates evaluated).
	N int64 `json:"n,omitempty"`
	// Leader and Prob are the current leader option and its share.
	Leader int     `json:"leader,omitempty"`
	Prob   float64 `json:"prob,omitempty"`
	// Entropy is the Shannon entropy (nats) of the learner's
	// distribution over options.
	Entropy float64 `json:"entropy,omitempty"`
	// Support counts options holding nonzero mass.
	Support int `json:"support,omitempty"`
	// Hist is the ShareHist population/weight histogram.
	Hist []int64 `json:"hist,omitempty"`
	// Safe, Attempts, Dups are pool-batch payloads.
	Safe     int64 `json:"safe,omitempty"`
	Attempts int64 `json:"attempts,omitempty"`
	Dups     int64 `json:"dups,omitempty"`
	// Algo, K, Agents describe the run (run_start only).
	Algo   string `json:"algo,omitempty"`
	K      int    `json:"k,omitempty"`
	Agents int    `json:"agents,omitempty"`
}

// Tracer emits events to a sink. A nil *Tracer is valid and traces
// nothing, so drivers thread it unconditionally; a Tracer over a NopSink
// reports inactive, reducing every emission site to one branch — the
// "compiles to near-zero overhead" contract the tracing-overhead
// benchmark (BenchmarkRun) holds to ≤5%.
//
// Emission order is the event order: drivers must emit from a single
// goroutine (their coordinator loop, after the iteration barrier) for the
// byte-identity guarantee to hold. Emit itself is mutex-serialized so
// concurrent use is race-free, merely unordered.
type Tracer struct {
	sink   Sink
	run    string
	sample int
	active bool

	mu  sync.Mutex
	seq uint64
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithRun sets the run label stamped on every event (use RunID for a
// seed-derived one).
func WithRun(run string) TracerOption { return func(t *Tracer) { t.run = run } }

// WithSample sets the detail-sampling interval: probe-level and
// learner-state events are emitted only on iterations where
// iter % sample == 0. Default 1 (every iteration).
func WithSample(n int) TracerOption {
	return func(t *Tracer) {
		if n > 0 {
			t.sample = n
		}
	}
}

// New builds a tracer over a sink. A NopSink (or nil sink) yields an
// inactive tracer.
func New(sink Sink, opts ...TracerOption) *Tracer {
	t := &Tracer{sink: sink, sample: 1}
	for _, opt := range opts {
		opt(t)
	}
	_, nop := sink.(NopSink)
	t.active = sink != nil && !nop
	return t
}

// Active reports whether events are being recorded. Nil-safe; emission
// sites guard on it before building an Event.
func (t *Tracer) Active() bool { return t != nil && t.active }

// Sampled reports whether iteration iter is a detail-sampled one
// (probe-level and state events). Nil-safe.
func (t *Tracer) Sampled(iter int) bool {
	return t != nil && t.active && iter%t.sample == 0
}

// Emit stamps the event with the next sequence number and the run label,
// then forwards it to the sink. Nil-safe (drops the event).
func (t *Tracer) Emit(e Event) {
	if !t.Active() {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if e.Run == "" {
		e.Run = t.run
	}
	t.sink.Emit(e)
	t.mu.Unlock()
}

// Scoped returns a tracer that shares this tracer's sink and sequence
// counter but stamps events with a different run label — how the
// experiment harness interleaves multiple runs into one stream while
// keeping every event attributable. Nil-safe (returns nil).
func (t *Tracer) Scoped(run string) *Tracer {
	if !t.Active() {
		return nil
	}
	return &Tracer{sink: scopedSink{t}, run: run, sample: t.sample, active: true}
}

// scopedSink routes a scoped tracer's events through the parent so the
// sequence numbers stay dense and the sink lock stays single.
type scopedSink struct{ parent *Tracer }

func (s scopedSink) Emit(e Event) {
	t := s.parent
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.sink.Emit(e)
	t.mu.Unlock()
}

func (s scopedSink) Close() error { return nil }

// Close flushes and closes the underlying sink.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

// RunID derives a deterministic run label from a seed and descriptive
// parts: a 16-hex-digit splitmix64-style hash. Two runs with the same
// seed and parts get the same ID — by design; the ID identifies the
// logical run, not the process that executed it.
func RunID(seed uint64, parts ...string) string {
	h := mix64(seed, 0x0B5E7)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = mix64(h, uint64(p[i]))
		}
		h = mix64(h, uint64(len(p)))
	}
	return fmt.Sprintf("%016x", h)
}

// mix64 folds v into h with the splitmix64 finalizer.
func mix64(h, v uint64) uint64 {
	z := h + 0x9e3779b97f4a7c15 + v
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
