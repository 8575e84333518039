// Package core implements MWRepair (paper Fig. 5/6): automated program
// repair recast as a two-phase, naturally parallel online estimation
// problem.
//
// Phase 1 (precompute, internal/pool): build a pool of individually safe
// mutations — embarrassingly parallel, amortizable across bugs.
//
// Phase 2 (online, this package): a multi-armed bandit whose arms are "how
// many pool mutations to compose per probe" (x ∈ 1..K). Each iteration,
// the chosen MWU realization assigns an arm to every parallel evaluator;
// each evaluator samples that many distinct pool mutations, applies them
// to the defective program, and runs the test suite. A probe that passes
// the full suite is a repair and terminates the search (Fig. 6's early
// return). Otherwise the probe's outcome feeds the MWU weight update,
// biasing subsequent samples toward the composition sizes where the
// density of useful programs is highest (Fig. 4b).
//
// The learner is pluggable behind mwu.Learner — the MWU_Init / MWU_Sample
// / MWU_Update interfaces of Fig. 6 — so Standard, Slate and Distributed
// drop in interchangeably.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bandit"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// RewardPolicy selects how a probe's outcome becomes a bandit reward.
type RewardPolicy int

const (
	// RewardThroughput (default) rewards a safe probe with probability
	// min(1, x/scale), making the expected reward proportional to x·S(x)
	// up to the reference scale — the rate at which the search usefully
	// screens pool mutations. This is the unimodal objective of Fig. 4b:
	// raw safety S(x) alone is maximized by the degenerate x = 1, which
	// would defeat composition entirely; the throughput factor encodes
	// the paper's trade-off between step size and failure rate.
	RewardThroughput RewardPolicy = iota
	// RewardSafety is the literal Fig. 6 rule: reward 1 iff the mutant's
	// fitness is at least the original's (i.e. the composition is safe).
	RewardSafety
)

// DefaultThroughputScale is the reference probe width for the throughput
// reward: composition sizes up to this earn proportionally more reward
// when safe. It matches the range where the paper's Fig. 4a safe-density
// curves live (1–80 mutations); normalizing by the full arm count K
// instead would crush the reward signal on large instances (at K = 5000 a
// safe probe of 30 mutations would be rewarded 0.6% of the time).
const DefaultThroughputScale = 64

// Config controls the online phase.
type Config struct {
	// MaxIter bounds update cycles (the evaluation uses 10,000).
	MaxIter int
	// Workers is the parallel probe evaluation width; 0 = GOMAXPROCS.
	Workers int
	// MaxX caps the largest composition size considered; 0 means
	// min(pool size, scenario options). The arm count K is MaxX.
	MaxX int
	// Reward selects the reward policy.
	Reward RewardPolicy
	// ThroughputScale overrides DefaultThroughputScale for the
	// RewardThroughput policy; 0 means the default.
	ThroughputScale int
	// Faults, when non-nil, injects probe-evaluation faults into the
	// online loop (threaded through to mwu.Run).
	Faults *faults.Injector
	// Policies are the degradation responses to injected faults.
	Policies faults.Policies
	// StragglerCutoff (virtual ticks) drops straggler rewards later than
	// the cutoff as missing; 0 waits stragglers out.
	StragglerCutoff int
	// Trace, when active, receives the online loop's iteration-level
	// event stream (threaded through to mwu.Run), plus cache events
	// sampling the fitness cache's cumulative hit total on sampled
	// iterations. Cumulative cache-hit totals are worker-count invariant —
	// unlike dedup/contention, which stay Registry-only — so the stream
	// remains byte-identical at any Workers count.
	Trace *obs.Tracer
	// Registry, when non-nil, receives the final learner metrics (under
	// "mwu.") when the repair returns — the snapshot a -debug-addr
	// /debug/metrics endpoint serves.
	Registry *obs.Registry
	// OnProgress, when non-nil, receives a progress snapshot after every
	// completed update cycle. It runs on the driver goroutine between
	// probe barriers (same discipline as trace emission), so it must be
	// cheap and must not block; the repair daemon's job-status endpoint
	// feeds from it.
	OnProgress func(Progress)
	// Store, when non-nil, persists every completed evaluation (write-
	// behind, batched off the probe hot path) and warm-starts the fitness
	// cache from prior runs' verdicts before the first probe. Verdicts
	// are pure functions of (program, suite), so warm-starting changes
	// which lookups pay for a suite execution, never what the search
	// does: the patch and trace stay byte-identical to a cold run.
	Store *store.Store
	// Drift, when non-nil, makes the repair problem non-stationary: each
	// step replaces the runner's suite (purging every cached verdict and
	// re-warm-starting under the new suite's fingerprint — see
	// testsuite.Runner.SetSuite) once the run's cumulative probe count
	// reaches the step's threshold. Steps are applied on the driver
	// goroutine at update-cycle boundaries from worker-invariant probe
	// counts, so drifting runs — and their traces, which record each step
	// as a "drift" event — stay byte-identical at any Workers count.
	// Generated drifting scenarios carry their schedule in
	// scenario.Scenario.Drift.
	Drift *testsuite.Drift
	// CongestionLambda, when positive, turns on adversarial cost
	// accounting in the online loop: every probe is charged
	// 1 + λ·(load−1) cost units where load is the number of agents that
	// chose the same arm that cycle (threaded through to
	// mwu.RunConfig.CongestionLambda; purely observational). Adversarial
	// scenario profiles carry λ in Profile.CongestionLambda.
	CongestionLambda float64
}

// Progress is the mid-run status snapshot delivered to Config.OnProgress:
// how far the search is, what it has cost so far, what the learner
// currently believes, and whether faults have left a mark.
type Progress struct {
	// Iter is the completed update-cycle count.
	Iter int
	// Probes, FitnessEvals, CacheHits and SafeProbes are the cumulative
	// cost and outcome counters at this cycle (SafeProbes counts probes
	// whose composition retained all required functionality — the online
	// estimate of Fig. 4a's safe rate).
	Probes       int64
	FitnessEvals int64
	CacheHits    int64
	SafeProbes   int64
	// BestArm is the composition size the learner currently favours (the
	// online estimate of the Fig. 4b optimum) and BestShare its
	// probability mass / popularity share.
	BestArm   int
	BestShare float64
	// Repaired reports a full repair has been captured (the run is about
	// to terminate).
	Repaired bool
	// Faults is the resilience ledger so far; Degraded mirrors
	// Result.Degraded's mid-run view (missing rewards or stalled cycles).
	Faults faults.Stats
}

// Degraded reports whether fault injection has visibly degraded the run
// so far.
func (p Progress) Degraded() bool {
	return p.Faults.Missing > 0 || p.Faults.StalledCycles > 0
}

// Result summarizes one repair attempt.
type Result struct {
	// Repaired reports whether a full repair was found.
	Repaired bool
	// Patch is the mutation set of the first repair found (nil otherwise).
	Patch []mutation.Mutation
	// Program is the repaired program (nil if not repaired).
	Program *lang.Program
	// Iterations is the number of online update cycles executed — the
	// latency proxy: with n parallel evaluators, wall-clock latency is
	// proportional to iterations, not probes.
	Iterations int
	// Probes is the total number of candidate evaluations issued online.
	Probes int64
	// FitnessEvals is the number of distinct test-suite executions
	// (deduplicated mutants are free), the Sec. IV-G cost currency.
	FitnessEvals int64
	// CacheHits is the number of probes answered by the fitness cache —
	// evaluations avoided because an identical mutant was already known.
	CacheHits int64
	// DedupSuppressed is the subset of CacheHits avoided by singleflight
	// deduplication: probes of a mutant whose evaluation was in flight on
	// another worker at that moment.
	DedupSuppressed int64
	// ShardContention counts contended cache-shard lock acquisitions — an
	// observability proxy for how hard the parallel probes hit the cache.
	ShardContention int64
	// LearnedArm is the composition size (x) the learner favoured at the
	// end — the online estimate of the Fig. 4b optimum.
	LearnedArm int
	// Agents is the per-iteration parallelism the learner used.
	Agents int
	// Cancelled reports the context was cancelled mid-search; the result
	// is the best-so-far partial answer.
	Cancelled bool
	// Degraded reports fault injection left a mark on the run (missing
	// rewards, stalled cycles, or cancellation). Details are in Faults.
	Degraded bool
	// Faults is the resilience ledger for the online phase: faults
	// injected, retries, timeouts, hedges won (zero without an injector).
	Faults faults.Stats
	// WarmEntries is the number of cache entries preloaded from the
	// persistent store (zero without Config.Store); WarmHits is how many
	// probe lookups those entries answered — suite executions a previous
	// run paid for.
	WarmEntries int64
	WarmHits    int64
	// DriftSteps is the number of suite-drift steps applied during the
	// run (zero for stationary problems). A repair reported alongside
	// drift is a repair for the suite in force when it was captured.
	DriftSteps int
	// CongestionCost is the congestion-priced total probe cost and
	// MaxLoad the highest realized single-arm load, filled when
	// Config.CongestionLambda is set.
	CongestionCost float64
	MaxLoad        int64
}

// repairOracle adapts (pool, suite) to the bandit.Oracle interface. Arm i
// means "compose i+1 pool mutations". It is safe for concurrent probes and
// captures the least repair seen under patchBefore's order.
type repairOracle struct {
	pl     *pool.Pool
	runner *testsuite.Runner
	k      int
	policy RewardPolicy
	scale  int

	mu     sync.Mutex
	patch  []mutation.Mutation
	mutant *lang.Program

	safeProbes atomic.Int64
}

// Arms implements bandit.Oracle.
func (o *repairOracle) Arms() int { return o.k }

// Probe implements bandit.Oracle: one parallel evaluation step of Fig. 6
// lines 5–13.
func (o *repairOracle) Probe(arm int, r *rng.RNG) bandit.Reward {
	x := arm + 1
	mutant, muts := o.pl.ApplySample(x, r)
	safe, repair := o.runner.Outcome(mutant)
	if safe {
		o.safeProbes.Add(1)
	}
	if repair {
		o.mu.Lock()
		if o.patch == nil || patchBefore(muts, o.patch) {
			o.patch, o.mutant = muts, mutant
		}
		o.mu.Unlock()
		return 1
	}
	if !safe {
		return 0
	}
	switch o.policy {
	case RewardSafety:
		return 1
	default: // RewardThroughput
		scale := o.scale
		if scale <= 0 {
			scale = DefaultThroughputScale
		}
		p := float64(x) / float64(scale)
		if p > 1 {
			p = 1
		}
		if r.Bool(p) {
			return 1
		}
		return 0
	}
}

// patchBefore is the fixed total order over patches that picks the
// reported repair: fewer mutations first, then the mutations compared in
// order by position, operator and source. Every probe of a cycle finishes
// before the driver stops the run, so the least repair of the cycle is the
// same at any worker count, whereas the first to finish would depend on
// goroutine scheduling.
func patchBefore(a, b []mutation.Mutation) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.At != y.At:
			return x.At < y.At
		case x.Op != y.Op:
			return x.Op < y.Op
		case x.From != y.From:
			return x.From < y.From
		}
	}
	return false
}

// repair returns the captured repair, if any.
func (o *repairOracle) repair() ([]mutation.Mutation, *lang.Program) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.patch, o.mutant
}

// Repair runs the online phase with the given learner over a precomputed
// pool. The learner's arm count must equal min(cfg.MaxX, pool size); use
// Arms to compute it before constructing the learner. Cancelling the
// context returns the best-so-far partial result with Cancelled set;
// cfg.Faults/cfg.Policies thread fault injection and graceful degradation
// into the online loop, with the outcome reported in Result.Faults and
// Result.Degraded — the search degrades or stalls per the learner's
// synchronization discipline instead of hanging.
func Repair(ctx context.Context, pl *pool.Pool, suite *testsuite.Suite, learner mwu.Learner, seed *rng.RNG, cfg Config) Result {
	k := Arms(pl, cfg)
	if learner.K() != k {
		panic(fmt.Sprintf("core: learner has %d arms, repair problem has %d", learner.K(), k))
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 10000
	}
	runner := testsuite.NewRunner(suite)
	if cfg.Store != nil {
		runner.AttachStore(cfg.Store)
		runner.WarmStart()
	}
	oracle := &repairOracle{pl: pl, runner: runner, k: k, policy: cfg.Reward, scale: cfg.ThroughputScale}

	var driftSteps []testsuite.DriftStep
	if cfg.Drift != nil {
		driftSteps = cfg.Drift.Steps
	}
	nextDrift := 0

	tr := cfg.Trace
	runRes := mwu.Run(ctx, learner, oracle, seed, mwu.RunConfig{
		MaxIter:          cfg.MaxIter,
		Workers:          cfg.Workers,
		Faults:           cfg.Faults,
		Policies:         cfg.Policies,
		StragglerCutoff:  cfg.StragglerCutoff,
		CongestionLambda: cfg.CongestionLambda,
		Trace:            tr,
		OnIteration: func(iter int, l mwu.Learner) bool {
			if tr.Sampled(iter) {
				// The callback runs on the driver goroutine between probe
				// barriers; the cumulative completed-lookup count (hits +
				// executed evaluations) is a pure function of the probes
				// issued so far, so the event stream stays invariant across
				// worker counts AND cache warmth — a warm-started cache
				// converts evals into hits one for one, leaving the sum
				// untouched. Raw hit counts would break warm/cold trace
				// byte-identity.
				tr.Emit(obs.Event{Type: obs.TypeCache, Iter: iter, N: runner.Lookups()})
			}
			patch, _ := oracle.repair()
			if patch == nil && nextDrift < len(driftSteps) {
				// Apply due drift steps at the cycle boundary, where no
				// probe is in flight. Cumulative probe counts are worker-
				// invariant, so the firing cycle — and the trace position of
				// the drift event, which is emitted on every firing, sampled
				// or not — is too. A repair captured this cycle wins the
				// race by design: it was a real repair for the suite its
				// probe ran against.
				probes := l.Metrics().Probes
				for nextDrift < len(driftSteps) && probes >= driftSteps[nextDrift].AfterProbes {
					step := driftSteps[nextDrift]
					runner.SetSuite(step.Suite)
					if tr.Active() {
						tr.Emit(obs.Event{Type: obs.TypeDrift, Iter: iter, Kind: step.Kind, N: step.AfterProbes})
					}
					nextDrift++
				}
			}
			if cfg.OnProgress != nil {
				m := l.Metrics()
				cfg.OnProgress(Progress{
					Iter:         iter,
					Probes:       m.Probes,
					FitnessEvals: runner.Evals(),
					CacheHits:    runner.CacheHits(),
					SafeProbes:   oracle.safeProbes.Load(),
					BestArm:      l.Leader() + 1,
					BestShare:    l.LeaderProb(),
					Repaired:     patch != nil,
					Faults:       m.Faults,
				})
			}
			return patch != nil // Fig. 6 line 8: terminate early on repair
		},
	})

	patch, mutant := oracle.repair()
	// Mirror the runner's cache observability into the learner's metrics
	// so cost reports built from Metrics alone can include it.
	m := learner.Metrics()
	m.CacheHits = runner.CacheHits()
	m.DedupSuppressed = runner.DedupSuppressed()
	m.ShardContention = runner.ShardContention()
	m.WarmEntries = runner.WarmEntries()
	m.WarmHits = runner.WarmHits()
	m.CongestionCost = runRes.CongestionCost
	m.MaxLoad = runRes.MaxLoad
	if cfg.Registry != nil {
		m.Export(cfg.Registry, "mwu")
		cfg.Registry.Counter("cache.warm_entries").Set(runner.WarmEntries())
		cfg.Registry.Counter("cache.warm_hits").Set(runner.WarmHits())
	}
	res := Result{
		Repaired:        patch != nil,
		Patch:           patch,
		Program:         mutant,
		Iterations:      runRes.Iterations,
		Probes:          m.Probes,
		FitnessEvals:    runner.Evals(),
		CacheHits:       m.CacheHits,
		DedupSuppressed: m.DedupSuppressed,
		ShardContention: m.ShardContention,
		LearnedArm:      runRes.Choice + 1,
		Agents:          learner.Agents(),
		Cancelled:       runRes.Cancelled,
		Degraded:        runRes.Degraded,
		Faults:          m.Faults,
		WarmEntries:     m.WarmEntries,
		WarmHits:        m.WarmHits,
		DriftSteps:      nextDrift,
		CongestionCost:  runRes.CongestionCost,
		MaxLoad:         runRes.MaxLoad,
	}
	return res
}

// Arms returns the bandit arm count for a pool under a config:
// min(MaxX or pool size, pool size).
func Arms(pl *pool.Pool, cfg Config) int {
	k := pl.Size()
	if cfg.MaxX > 0 && cfg.MaxX < k {
		k = cfg.MaxX
	}
	if k < 1 {
		panic("core: empty pool")
	}
	return k
}

// RepairWithAlgorithm is the convenience entry point: it builds the named
// MWU learner with evaluation defaults and runs Repair. Distributed
// configurations beyond the tractability bound return an error.
func RepairWithAlgorithm(ctx context.Context, algorithm string, pl *pool.Pool, suite *testsuite.Suite, seed *rng.RNG, cfg Config) (Result, error) {
	k := Arms(pl, cfg)
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: algorithm, K: k}, seed.Split())
	if err != nil {
		return Result{}, err
	}
	return Repair(ctx, pl, suite, learner, seed.Split(), cfg), nil
}
