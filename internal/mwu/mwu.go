// Package mwu implements the three parallel Multiplicative Weights Update
// realizations the paper compares (Sec. II):
//
//   - Standard — the weighted-majority MWU of Arora–Hazan–Kale: a global
//     shared weight vector over all k options, n parallel evaluators, full
//     synchronization every iteration.
//   - Slate — the bandit slate-selection MWU of Kale–Reyzin–Schapire: a
//     fixed-size slate of n distinct options per iteration, selected by
//     capping the weight vector onto the slate polytope and decomposing it
//     into a convex combination of slates (internal/simplex); only slate
//     members receive (importance-weighted) updates.
//   - Distributed — the memoryless social-learning MWU of
//     Celis–Krafft–Vishnoi: a population of agents each holding a single
//     current choice; the weight vector exists only implicitly as option
//     popularity. Each agent observes a random option (prob. μ) or a random
//     neighbor's choice, evaluates it, and adopts it with prob. β on
//     success or α on failure.
//
// plus two post-paper realizations built on the concurrent wrs stream API
// (both implement StreamSampler, so the probe workers draw their own arms
// from a frozen per-cycle alias table):
//
//   - Optimistic — MWU with a gradient-prediction step (after "Beating the
//     Multiplicative Weights Update Algorithm"): each update applies the
//     exponential rule to twice the fresh gain minus the previous gain on
//     the same arm, accelerating convergence when consecutive gains agree.
//   - Congestion — constant-step-size linear MWU driven by
//     congestion-game dynamics (internal/congestion): an arm's observed
//     gain is discounted by how many agents picked it this cycle, so the
//     population spreads over near-best arms instead of thundering onto
//     one, and the plurality criterion decides convergence.
//
// All five sit behind the Learner interface, which mirrors the generic
// MWU_Init / MWU_Sample / MWU_Update decomposition of the MWRepair
// algorithm (paper Fig. 6): Sample returns the option each parallel
// evaluator should probe this cycle, and Update consumes the rewards.
// Probe evaluation itself — the expensive part in APR — is owned by the
// Run driver, which fans probes out across goroutines with independent,
// pre-split RNG streams so results are deterministic under a fixed seed
// regardless of scheduling.
//
// The driver also owns the resilience story (DESIGN.md §10): an optional
// internal/faults injector perturbs probe evaluations with stragglers,
// hangs, result losses, and worker panics; Timeout/Retry/Hedge policies
// absorb what they can; and what remains degrades according to each
// learner's synchronization discipline — barriered learners (Standard,
// Slate) stall on silent failures, the autonomous Distributed learner
// shrugs them off as missing observations.
package mwu

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bandit"
	"repro/internal/congestion"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wrs"
)

// Learner is one MWU realization. Implementations are not safe for
// concurrent use; the Run driver calls Sample/Update from a single
// goroutine and parallelizes only the probe evaluations between them.
type Learner interface {
	// Name identifies the realization ("standard", "slate", "distributed",
	// "optimistic", "congestion").
	Name() string
	// K returns the number of options.
	K() int
	// Agents returns the number of parallel evaluators (CPUs) the learner
	// occupies each iteration — the per-iteration CPU cost of Table IV.
	Agents() int
	// Sample assigns an option to each of the Agents() evaluators for this
	// update cycle. The returned slice is freshly allocated: ownership
	// passes to the caller, and later Sample or Update calls never
	// overwrite it, so drivers may retain past assignments (e.g. to replay
	// or audit a run).
	Sample() []int
	// Update consumes the rewards observed for the assignment returned by
	// the immediately preceding Sample call (rewards[i] ∈ {0,1} is the
	// outcome for arms[i]). The rewards slice is freshly allocated for
	// each cycle and ownership passes to the learner: retaining it is
	// safe, it is never overwritten by a later iteration.
	Update(arms []int, rewards []float64)
	// Leader returns the option the learner currently considers best
	// (highest weight, or most popular for Distributed).
	Leader() int
	// LeaderProb returns the leader's share: its probability under the
	// normalized weight vector, or its popularity fraction for Distributed.
	LeaderProb() float64
	// Converged reports whether the learner's own convergence criterion
	// (Sec. IV-C) is met.
	Converged() bool
	// Metrics exposes the learner's cost accounting.
	Metrics() *Metrics
}

// StreamSampler is the optional capability for learners built on the wrs
// Forkable/Stream API (the "optimistic" and "congestion" realizations).
// Instead of Sample materializing the cycle's assignment on the driver
// goroutine, FreezeSampler freezes the learner's current distribution once
// per cycle and the driver's probe workers draw each slot's arm themselves
// — concurrently, with no driver-side serialization. Slot i's draw
// consumes only slot i's stream, so the assignment (and everything
// downstream of it) is bit-identical at any worker count, the same
// invariance argument as the evaluator's per-slot probe streams.
// FreezeSampler reports invalid weight states (NaN, negative, vanished
// total) as an error; Run surfaces it in RunResult.Err and ends the run
// instead of panicking mid-flight.
type StreamSampler interface {
	FreezeSampler() (wrs.Forkable, error)
}

// PartialUpdater is the optional degradation interface: a learner that
// implements it can consume an update cycle in which some rewards never
// arrived. missing[i] marks slots whose reward is absent (rewards[i] is
// zero and meaningless there). Each learner degrades per its own
// synchronization discipline: Standard skips the missing slots, Slate
// importance-corrects the survivors, Distributed leaves the affected
// agents' choices untouched.
type PartialUpdater interface {
	UpdateMissing(arms []int, rewards []float64, missing []bool)
}

// autonomous is the optional marker for learners whose evaluators do not
// synchronize through a barrier: a silent evaluator failure (hang, lost
// result) strands only that evaluator's observation, not the cycle. The
// Distributed learner is autonomous; Standard and Slate — which must join
// all n results before updating the shared weight vector — are not, and a
// silent failure with no Timeout policy stalls their whole cycle (the
// paper's Table I fault-tolerance argument, made measurable).
type autonomous interface {
	Autonomous() bool
}

// Metrics accumulates the cost accounting the evaluation reports:
// update cycles (Table II), CPU-iterations (Table IV), communication
// congestion, and per-node memory overhead (Table I).
type Metrics struct {
	// Iterations is the number of completed update cycles.
	Iterations int
	// Probes is the total number of option evaluations issued.
	Probes int64
	// CPUIterations is the sum over iterations of agents occupied — the
	// currency of Table IV.
	CPUIterations int64
	// MaxCongestion is the maximum number of messages any single node
	// received in one iteration (Table I "communication cost").
	MaxCongestion int64
	// SumCongestion accumulates per-iteration congestion for averaging.
	SumCongestion int64
	// MessagesSent counts all point-to-point messages.
	MessagesSent int64
	// MemoryFloats is the per-node memory overhead in float64 words
	// (Table I "memory overhead"): k for Standard/Slate, O(1) for
	// Distributed. int64 like its sibling counters, so exports never
	// truncate on 32-bit builds.
	MemoryFloats int64
	// CacheHits, DedupSuppressed and ShardContention mirror the fitness
	// cache's observability when the oracle is backed by a
	// testsuite.Runner: probes answered from cache, probes suppressed by
	// in-flight deduplication, and contended cache-shard acquisitions.
	// They are filled in by drivers that own the runner (core.Repair);
	// synthetic bandit oracles leave them zero.
	CacheHits       int64
	DedupSuppressed int64
	ShardContention int64
	// SamplerContention counts concurrent draws that found a shared
	// sampler lock held. Every sampler the learners use draws lock-free
	// (the frozen alias table), so nothing sets it and it is always zero;
	// the field stays because cmd/mwbench, a separate module that
	// compiles against this package, reads it.
	SamplerContention int64
	// WarmEntries and WarmHits mirror the runner's persistent-store
	// warm-start accounting: cache entries preloaded from disk, and the
	// lookups they answered — suite executions a previous run paid for.
	// Zero when no store is attached.
	WarmEntries int64
	WarmHits    int64
	// CongestionCost and MaxLoad are the adversarial-scenario cost
	// accounting, filled by the Run driver when RunConfig.CongestionLambda
	// is set: total probe cost where a probe on an arm chosen by `load`
	// agents in the same cycle costs 1 + λ·(load−1) (the linear latency
	// model in internal/congestion), and the highest realized single-arm
	// load over the run. Zero under classic unit-cost accounting.
	CongestionCost float64
	MaxLoad        int64
	// Faults is the resilience ledger: faults injected into this run and
	// what the Timeout/Retry/Hedge policies made of them. All zero when no
	// injector is configured.
	Faults faults.Stats
}

// MeanCongestion returns the average per-iteration congestion.
func (m *Metrics) MeanCongestion() float64 {
	if m.Iterations == 0 {
		return 0
	}
	return float64(m.SumCongestion) / float64(m.Iterations)
}

func (m *Metrics) String() string {
	s := fmt.Sprintf("iters=%d probes=%d cpu-iters=%d congestion(max=%d mean=%.1f) mem=%d",
		m.Iterations, m.Probes, m.CPUIterations, m.MaxCongestion, m.MeanCongestion(), m.MemoryFloats)
	if m.CacheHits > 0 || m.DedupSuppressed > 0 || m.ShardContention > 0 {
		s += fmt.Sprintf(" cache(hits=%d dedup=%d contention=%d)",
			m.CacheHits, m.DedupSuppressed, m.ShardContention)
	}
	if m.WarmEntries > 0 {
		s += fmt.Sprintf(" warm(entries=%d hits=%d)", m.WarmEntries, m.WarmHits)
	}
	if m.CongestionCost > 0 {
		s += fmt.Sprintf(" congestion-cost=%.1f max-load=%d", m.CongestionCost, m.MaxLoad)
	}
	if m.Faults.Any() {
		s += " " + m.Faults.String()
	}
	return s
}

// Export publishes the metrics into an obs.Registry under the given
// prefix (e.g. "mwu"), unifying the learner's accounting with the other
// subsystems' counters in one scrapeable namespace. Gauges carry the
// point-in-time quantities, counters the cumulative ones.
func (m *Metrics) Export(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".iterations").Set(int64(m.Iterations))
	reg.Counter(prefix + ".probes").Set(m.Probes)
	reg.Counter(prefix + ".cpu_iterations").Set(m.CPUIterations)
	reg.Counter(prefix + ".messages_sent").Set(m.MessagesSent)
	reg.Counter(prefix + ".cache_hits").Set(m.CacheHits)
	reg.Counter(prefix + ".dedup_suppressed").Set(m.DedupSuppressed)
	reg.Counter(prefix + ".shard_contention").Set(m.ShardContention)
	reg.Counter(prefix + ".sampler_contention").Set(m.SamplerContention)
	reg.Counter(prefix + ".warm_entries").Set(m.WarmEntries)
	reg.Counter(prefix + ".warm_hits").Set(m.WarmHits)
	reg.Gauge(prefix + ".max_congestion").Set(float64(m.MaxCongestion))
	reg.Gauge(prefix + ".mean_congestion").Set(m.MeanCongestion())
	reg.Gauge(prefix + ".congestion_cost").Set(m.CongestionCost)
	reg.Gauge(prefix + ".max_load").Set(float64(m.MaxLoad))
	reg.Gauge(prefix + ".memory_floats").Set(float64(m.MemoryFloats))
	f := m.Faults
	reg.Counter(prefix + ".faults.injected").Set(f.Injected)
	reg.Counter(prefix + ".faults.missing").Set(f.Missing)
	reg.Counter(prefix + ".faults.stalled_cycles").Set(f.StalledCycles)
	reg.Counter(prefix + ".faults.retries").Set(f.Retries)
	reg.Counter(prefix + ".faults.timeouts").Set(f.Timeouts)
}

// recordIteration folds one update cycle into the metrics.
func (m *Metrics) recordIteration(agents, congestion int, messages int64) {
	m.Iterations++
	m.Probes += int64(agents)
	m.CPUIterations += int64(agents)
	if c := int64(congestion); c > m.MaxCongestion {
		m.MaxCongestion = c
	}
	m.SumCongestion += int64(congestion)
	m.MessagesSent += messages
}

// RunConfig controls the Run driver.
type RunConfig struct {
	// MaxIter caps the number of update cycles (the paper uses 10,000).
	MaxIter int
	// Workers sets the probe-evaluation goroutine count; 0 means
	// GOMAXPROCS. Use 1 for fully sequential evaluation.
	Workers int
	// OnIteration, if non-nil, runs after each update cycle with the
	// completed iteration count; returning true stops the run early
	// (MWRepair's early termination hooks in here). It runs on every
	// completed cycle — including the one on which the learner converges —
	// so an early-stop condition met on the converging cycle is still
	// reported via Stopped. Stalled cycles (a silent fault wedging a
	// barriered learner) complete no update and do not invoke it.
	OnIteration func(iter int, l Learner) bool

	// Faults, when non-nil, injects probe-evaluation faults (stragglers,
	// hangs, result losses, worker panics) at the injector's configured
	// rates. Fault decisions are stateless hashes of (iteration, slot,
	// attempt): a fixed injector seed yields a bit-identical fault
	// schedule at any worker count.
	Faults *faults.Injector
	// Policies are the degradation responses applied to injected faults:
	// Timeout detects silent failures, Retry re-issues detected ones with
	// backoff, Hedge races stragglers. Zero-value policies are disabled.
	Policies faults.Policies
	// StragglerCutoff, in virtual ticks, marks straggler rewards arriving
	// later than the cutoff as missing instead of waiting them out
	// (importance-corrected update for Slate, skipped slot for Standard).
	// 0 waits for stragglers indefinitely.
	StragglerCutoff int

	// CongestionLambda, when positive, turns on adversarial cost
	// accounting: each cycle the driver tallies the realized per-arm
	// loads and charges every probe 1 + CongestionLambda*(load-1) cost
	// units (internal/congestion's linear latency model — probing an arm
	// nobody else chose costs 1, herding all agents onto one arm costs
	// ~λ·agents each). The accounting is observational: it never changes
	// sampling, rewards, or updates, so traces are unchanged and
	// byte-identical to a λ=0 run. Totals land in RunResult and the
	// driver-filled Metrics fields.
	CongestionLambda float64

	// Trace, when active, receives the run's iteration-level event stream
	// (see internal/obs). All events are emitted from the driver goroutine
	// after the probe barrier, in slot order, and carry only virtual ticks
	// and seed-derived identifiers — the stream is byte-identical at any
	// Workers count. Nil (or a NopSink tracer) costs one branch per site.
	Trace *obs.Tracer
}

// RunResult summarizes a completed run.
type RunResult struct {
	// Converged reports whether the learner met its criterion before the
	// iteration limit.
	Converged bool
	// Iterations is the number of update cycles executed (including
	// stalled ones: a stalled cycle burns real time and CPU).
	Iterations int
	// Choice is the leader when the run ended.
	Choice int
	// LeaderProb is the leader's final share.
	LeaderProb float64
	// CPUIterations is iterations × agents (Table IV).
	CPUIterations int64
	// Stopped reports whether OnIteration asked to end the run. Stopped
	// and Converged are independent: both are true when the stop
	// condition and the convergence criterion are met on the same cycle.
	Stopped bool
	// Cancelled reports that the context was cancelled mid-run; the rest
	// of the result is the best-so-far partial answer.
	Cancelled bool
	// Degraded reports that fault injection left a mark on the run:
	// rewards went missing, cycles stalled, or the run was cancelled.
	// Details are in the learner's Metrics.Faults ledger.
	Degraded bool
	// Err is set when the run ended on a learner-reported error (today:
	// a StreamSampler whose weight state went invalid mid-run). The rest
	// of the result is the best-so-far partial answer, as for Cancelled.
	Err error
	// CongestionCost is the total congestion-priced probe cost and
	// MaxLoad the highest realized single-arm load, filled when
	// RunConfig.CongestionLambda is set (see its doc). Stalled cycles are
	// included: their probes were issued and paid for even though no
	// update happened.
	CongestionCost float64
	MaxLoad        int64
}

// Run drives a learner against an oracle until convergence, the iteration
// limit, context cancellation, or an OnIteration stop. Probes are
// evaluated in parallel across cfg.Workers goroutines; each evaluator slot
// uses its own pre-split RNG stream keyed by slot index, so a fixed seed
// yields identical results at any worker count — with or without fault
// injection. On cancellation the best-so-far partial result is returned
// with Cancelled set; the probe workers are always drained before Run
// returns.
func Run(ctx context.Context, l Learner, o bandit.Oracle, seed *rng.RNG, cfg RunConfig) RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 10000
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := newEvaluator(o, seed, workers)
	ev.inj = cfg.Faults
	ev.pol = cfg.Policies
	ev.cutoff = cfg.StragglerCutoff
	tr := cfg.Trace
	ev.trace = tr.Active()
	defer ev.close()

	auto := false
	if a, ok := l.(autonomous); ok {
		auto = a.Autonomous()
	}
	partial, hasPartial := l.(PartialUpdater)
	streamer, _ := l.(StreamSampler)

	if tr.Active() {
		tr.Emit(obs.Event{Type: obs.TypeRunStart, Algo: l.Name(),
			K: l.K(), Agents: l.Agents(), N: int64(cfg.MaxIter)})
	}
	res := RunResult{}
	var loads []int // congestion-accounting scratch, allocated on demand
	for t := 1; t <= cfg.MaxIter; t++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		sampled := tr.Sampled(t)
		if tr.Active() {
			tr.Emit(obs.Event{Type: obs.TypeIterStart, Iter: t})
		}
		var arms []int
		var rewards []float64
		var status []probeStatus
		if streamer != nil {
			// Stream path: freeze the learner's distribution once, then
			// let the probe workers draw their own slots' arms before
			// probing them. emitProbes runs after the barrier here, but
			// the event order in the stream is unchanged (probes before
			// probe outcomes), so traces stay byte-identical at any
			// worker count.
			sampler, err := streamer.FreezeSampler()
			if err != nil {
				res.Err = fmt.Errorf("mwu: freeze sampler (iter %d): %w", t, err)
				break
			}
			arms, rewards, status = ev.sampleProbeAll(t, sampler, l.Agents())
			if sampled {
				emitProbes(tr, t, arms)
			}
		} else {
			arms = l.Sample()
			if sampled {
				emitProbes(tr, t, arms)
			}
			rewards, status = ev.probeAll(t, arms)
		}
		if cfg.CongestionLambda > 0 {
			// Cost accounting happens before the stall check: a stalled
			// cycle's probes were issued and paid the congestion price even
			// though the learner could not update on them. Loads depend
			// only on the cycle's arms, which are worker-count invariant,
			// so the totals are too.
			if loads == nil {
				loads = make([]int, l.K())
			}
			if ml := int64(congestion.LoadsInto(loads, arms)); ml > res.MaxLoad {
				res.MaxLoad = ml
			}
			for _, a := range arms {
				res.CongestionCost += 1 + cfg.CongestionLambda*float64(loads[a]-1)
			}
		}
		if tr.Active() {
			// All emission happens here on the driver goroutine, after the
			// probe barrier, in slot order — worker interleaving cannot
			// reach the event stream.
			emitProbeOutcomes(tr, t, arms, rewards, status, ev.recs, sampled)
		}
		if status == nil {
			// Fault-free fast path: bit-identical to the historical driver.
			l.Update(arms, rewards)
		} else if !applyDegraded(l, auto, partial, hasPartial, &ev.stats, arms, rewards, status) {
			// A silent failure wedged this barriered learner's cycle: the
			// CPU was burned and wall-clock lost, but no update happened —
			// the learner cannot make progress this cycle. MaxIter still
			// advances, which is exactly how "Standard stalls" manifests.
			res.Iterations = t
			m := l.Metrics()
			m.Probes += int64(len(arms))
			m.CPUIterations += int64(len(arms))
			if tr.Active() {
				tr.Emit(obs.Event{Type: obs.TypeStall, Iter: t})
				tr.Emit(obs.Event{Type: obs.TypeIterEnd, Iter: t})
			}
			continue
		}
		if tr.Active() {
			emitUpdate(tr, t, rewards, status)
		}
		res.Iterations = t
		// The stop callback is evaluated before the convergence check so
		// that a stop condition met on the converging cycle (e.g. MWRepair
		// finding a repair, Fig. 6's early return) is not masked by
		// Converged; both flags are reported when both hold.
		if cfg.OnIteration != nil && cfg.OnIteration(t, l) {
			res.Stopped = true
		}
		if l.Converged() {
			res.Converged = true
		}
		if tr.Active() {
			emitConv(tr, t, l, res.Converged)
			if sampled {
				emitState(tr, t, l, arms)
			}
			tr.Emit(obs.Event{Type: obs.TypeIterEnd, Iter: t})
		}
		if res.Stopped || res.Converged {
			break
		}
	}
	res.Choice = l.Leader()
	res.LeaderProb = l.LeaderProb()
	m := l.Metrics()
	m.Faults.Merge(ev.stats)
	res.CPUIterations = m.CPUIterations
	res.Degraded = res.Cancelled || ev.stats.Missing > 0 || ev.stats.StalledCycles > 0
	if tr.Active() {
		tr.Emit(obs.Event{Type: obs.TypeRunEnd, Iter: res.Iterations,
			Kind: runEndKind(res), Leader: res.Choice, Prob: res.LeaderProb})
	}
	return res
}

// applyDegraded consumes one update cycle that carries fault statuses.
// It returns false when the cycle stalled (a silent unresolved failure on
// a barriered learner) and no update was applied.
func applyDegraded(l Learner, auto bool, partial PartialUpdater, hasPartial bool,
	stats *faults.Stats, arms []int, rewards []float64, status []probeStatus) bool {
	var missing []bool
	anyMissing := false
	for i, s := range status {
		if s == probeOK {
			continue
		}
		if s == probeUnresolved {
			if !auto {
				// Barriered learner, silent failure, no Timeout to detect
				// it: the join never completes. The cycle is wasted.
				stats.StalledCycles++
				return false
			}
			// Autonomous learners have no join: the affected agent simply
			// never observes a result this round.
			stats.Missing++
		}
		if missing == nil {
			missing = make([]bool, len(arms))
		}
		missing[i] = true
		anyMissing = true
	}
	if !anyMissing {
		l.Update(arms, rewards)
		return true
	}
	if hasPartial {
		partial.UpdateMissing(arms, rewards, missing)
		return true
	}
	// Defensive fallback for learners without degradation support: missing
	// rewards are already zero, which a {0,1}-reward learner reads as
	// failure — pessimistic but safe.
	l.Update(arms, rewards)
	return true
}

// probeStatus is the per-slot outcome of fault resolution.
type probeStatus uint8

const (
	// probeOK: the reward arrived (possibly late but within the cutoff).
	probeOK probeStatus = iota
	// probeMissing: the reward is known to be absent — a detected failure
	// (panic, timeout, late-dropped straggler) that exhausted its retries.
	probeMissing
	// probeUnresolved: the reward silently never arrived and no policy
	// detected it. A barrier waiting on it stalls.
	probeUnresolved
)

// evaluator owns the parallel probe fan-out. Each evaluator slot (agent
// index) has a dedicated RNG stream created once up front; rewards
// therefore depend only on (slot, call sequence), never on goroutine
// interleaving or worker count. Fault decisions are stateless hashes of
// (iteration, slot, attempt), so the same invariance extends to the fault
// schedule.
//
// The worker goroutines are persistent: they are started lazily on the
// first parallel probeAll and live until close, so the per-iteration cost
// of the online loop is a channel send per chunk rather than a goroutine
// spawn per chunk (the hot path runs for thousands of update cycles).
type evaluator struct {
	oracle  bandit.Oracle
	workers int
	seed    *rng.RNG
	streams []*rng.RNG

	// Fault-injection state. inj is nil for clean runs; stats fields are
	// updated with atomics by concurrent workers and read only after the
	// wg barrier.
	inj    *faults.Injector
	pol    faults.Policies
	cutoff int
	stats  faults.Stats

	// trace enables per-slot fault/latency recording into recs: one
	// slotTrace per slot, written only by the worker owning that slot and
	// read by the driver after the wg barrier (which orders the accesses),
	// so the records — unlike the atomically merged stats — preserve
	// slot-attributable, deterministic detail the tracer can emit in slot
	// order. recs is allocated per round and only when both tracing and
	// fault injection are on; the fault-free path never touches it.
	trace bool
	recs  []slotTrace

	// Round state shared with the persistent workers. arms, rewards,
	// status and sampler are set before jobs are dispatched and read only
	// between wg.Add and wg.Wait, so the channel send/receive and
	// WaitGroup edges order every access. rewards is freshly allocated
	// per round: ownership of the returned slice passes to the caller
	// (see Learner.Update). sampler, when non-nil, is the cycle's frozen
	// Forkable: the worker owning slot i draws arms[i] from stream i
	// before probing it (the StreamSampler path).
	arms    []int
	rewards []float64
	status  []probeStatus
	sampler wrs.Forkable
	iter    int
	jobs    chan probeChunk
	wg      sync.WaitGroup
}

// probeChunk is a half-open slot range [lo, hi) assigned to one worker.
type probeChunk struct{ lo, hi int }

func newEvaluator(o bandit.Oracle, seed *rng.RNG, workers int) *evaluator {
	return &evaluator{oracle: o, workers: workers, seed: seed}
}

// ensure grows the per-slot stream table to at least n entries.
func (e *evaluator) ensure(n int) {
	for len(e.streams) < n {
		e.streams = append(e.streams, e.seed.Split())
	}
}

// start launches the persistent worker pool. Workers range over a local
// copy of the jobs channel: close() nils the struct field, and a worker
// that never received a job may only reach its range statement after that
// write.
func (e *evaluator) start() {
	e.jobs = make(chan probeChunk)
	jobs := e.jobs
	for w := 0; w < e.workers; w++ {
		go func() {
			for c := range jobs {
				for i := c.lo; i < c.hi; i++ {
					if e.sampler != nil {
						e.arms[i] = e.sampler.Stream(i).Draw()
					}
					if e.status != nil {
						e.rewards[i], e.status[i] = e.resolve(e.iter, i, e.arms[i])
					} else {
						e.rewards[i] = e.oracle.Probe(e.arms[i], e.streams[i])
					}
				}
				e.wg.Done()
			}
		}()
	}
}

// close shuts the worker pool down. Safe to call when no pool was started
// and idempotent.
func (e *evaluator) close() {
	if e.jobs != nil {
		close(e.jobs)
		e.jobs = nil
	}
}

// probeAll evaluates arms[i] with slot i's stream, in parallel. The
// returned rewards slice is freshly allocated each call; the caller owns
// it. The status slice is nil when no injector is configured (the
// fault-free fast path) and per-slot fault outcomes otherwise.
func (e *evaluator) probeAll(iter int, arms []int) ([]float64, []probeStatus) {
	return e.round(iter, arms, nil)
}

// sampleProbeAll is probeAll for StreamSampler learners: the cycle's arms
// are drawn from the frozen sampler's per-slot streams by the same workers
// that probe them. Draw and probe both key off the slot index alone, so
// the returned assignment and rewards are identical at any worker count.
func (e *evaluator) sampleProbeAll(iter int, sampler wrs.Forkable, n int) ([]int, []float64, []probeStatus) {
	arms := make([]int, n)
	rewards, status := e.round(iter, arms, sampler)
	return arms, rewards, status
}

// round runs one probe cycle over the given assignment — drawing it first
// from sampler's per-slot streams when one is supplied.
func (e *evaluator) round(iter int, arms []int, sampler wrs.Forkable) ([]float64, []probeStatus) {
	n := len(arms)
	e.ensure(n)
	rewards := make([]float64, n)
	var status []probeStatus
	e.recs = nil
	if e.inj.Enabled() {
		status = make([]probeStatus, n)
		if e.trace {
			e.recs = make([]slotTrace, n)
		}
	}
	if e.workers == 1 || n == 1 {
		for i := range arms {
			if sampler != nil {
				arms[i] = sampler.Stream(i).Draw()
			}
			if status != nil {
				rewards[i], status[i] = e.resolve(iter, i, arms[i])
			} else {
				rewards[i] = e.oracle.Probe(arms[i], e.streams[i])
			}
		}
		return rewards, status
	}
	if e.jobs == nil {
		e.start()
	}
	e.arms = arms
	e.rewards = rewards
	e.status = status
	e.sampler = sampler
	e.iter = iter
	w := e.workers
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		e.wg.Add(1)
		e.jobs <- probeChunk{lo: start, hi: end}
	}
	e.wg.Wait()
	e.status = nil
	e.sampler = nil
	return rewards, status
}

// add atomically bumps one stats counter; workers resolve slots
// concurrently, so the ledger must be written with atomics and read only
// after the round barrier.
func add(c *int64, n int64) { atomic.AddInt64(c, n) }

// resolve plays out the fate of one probe slot under fault injection, in
// virtual time. It returns the reward (zero when absent) and the slot's
// resolution status. Decisions are hashes of (iter, slot, attempt); the
// only RNG use is backoff jitter from the slot's own stream, drawn only
// when a retry actually fires — so fault-free trajectories are untouched
// and faulty ones stay deterministic at any worker count.
func (e *evaluator) resolve(iter, slot, arm int) (float64, probeStatus) {
	st := &e.stats
	elapsed := 0
	for attempt := 0; ; attempt++ {
		switch kind := e.inj.ProbeFault(iter, slot, attempt); kind {
		case faults.None:
			e.recTick(slot, elapsed)
			return e.oracle.Probe(arm, e.streams[slot]), probeOK

		case faults.Straggle:
			add(&st.Injected, 1)
			add(&st.Stragglers, 1)
			e.recFault(slot, attempt, kind)
			// The probe does complete — just late. Compute the reward now
			// (the oracle draw is part of the slot stream either way) and
			// decide in virtual time when it lands.
			reward := e.oracle.Probe(arm, e.streams[slot])
			arrival := elapsed + e.inj.StraggleTicks(iter, slot, attempt)
			if e.pol.Hedge.Enabled() {
				hedgeAt := elapsed + e.pol.Hedge.AfterTicks
				if arrival > hedgeAt {
					add(&st.Hedges, 1)
					// The hedge is its own decision site and can fault too;
					// only a clean hedge can beat the straggler home.
					if e.inj.HedgeFault(iter, slot, attempt) == faults.None {
						if hedged := hedgeAt + 1; hedged < arrival {
							add(&st.HedgesWon, 1)
							arrival = hedged
						}
					}
				}
			}
			e.recTick(slot, arrival)
			if e.cutoff > 0 && arrival > e.cutoff {
				add(&st.LateDropped, 1)
				add(&st.Missing, 1)
				return 0, probeMissing
			}
			return reward, probeOK

		case faults.Panic:
			// Loud: the worker pool recovers the panic and knows the slot
			// failed, so a retry needs no timeout.
			add(&st.Injected, 1)
			add(&st.Panics, 1)
			e.recFault(slot, attempt, kind)
			if e.pol.Retry.Enabled() && attempt < e.pol.Retry.Max {
				add(&st.Retries, 1)
				elapsed += e.pol.Retry.Backoff(attempt+1, e.streams[slot])
				continue
			}
			add(&st.Missing, 1)
			e.recTick(slot, elapsed)
			return 0, probeMissing

		case faults.Hang, faults.Loss:
			// Silent: from the waiting side nothing distinguishes "still
			// running" from "never coming". Only a Timeout converts this
			// into a detected miss; without one the slot is unresolved and
			// a barriered learner stalls on it.
			add(&st.Injected, 1)
			if kind == faults.Hang {
				add(&st.Hangs, 1)
			} else {
				add(&st.Losses, 1)
			}
			e.recFault(slot, attempt, kind)
			if !e.pol.Timeout.Enabled() {
				e.recTick(slot, elapsed)
				return 0, probeUnresolved
			}
			add(&st.Timeouts, 1)
			elapsed += e.pol.Timeout.AfterTicks
			if e.pol.Retry.Enabled() && attempt < e.pol.Retry.Max {
				add(&st.Retries, 1)
				elapsed += e.pol.Retry.Backoff(attempt+1, e.streams[slot])
				continue
			}
			add(&st.Missing, 1)
			e.recTick(slot, elapsed)
			return 0, probeMissing
		}
	}
}
