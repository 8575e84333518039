package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// corpusRows are the registry rows corpus and rerun repair, one job per
// row in every seed slot. They are single-edit rows whose searches end in
// a few dozen cycles; see doc.go for the rows left out and why.
var corpusRows = []string{"lighttpd-1806-1807", "libtiff-2005-12-14", "Chart26", "Math8", "Math80", "adv-mild"}

const (
	// probeWorkers is the probe and pool-build parallelism of every job:
	// the CPU count of the machine the bounds were fixed on.
	probeWorkers = 2
	// repairMaxIter is the CLI's default online iteration limit.
	repairMaxIter = 2000
	// primeSlots is how many seed slots rerun's priming pass repairs at
	// most; the measured pass cycles over them.
	primeSlots = 10
	// corpusSlotsPerSecond and rerunSlotsPerSecond are the rates at which
	// the measured passes got through seed slots on the machine the bounds
	// were fixed on (see runOpts.slots).
	corpusSlotsPerSecond = 1.0
	rerunSlotsPerSecond  = 1.25
)

// repairJob is one repair: a corpus row, a learner and a seed.
type repairJob struct {
	row  int
	alg  string
	seed uint64
}

func (j repairJob) String() string {
	return fmt.Sprintf("%s/%s/seed %d", corpusRows[j.row], j.alg, j.seed)
}

// repairSlot lists one seed slot's jobs. The learner rotates with the
// slot, so every five slots give each row every learner once.
func repairSlot(seed uint64, slot int) []repairJob {
	jobs := make([]repairJob, len(corpusRows))
	for row := range corpusRows {
		jobs[row] = repairJob{row: row, alg: mwu.Names[(slot+row)%len(mwu.Names)], seed: jobSeed(seed, slot)}
	}
	return jobs
}

// repairResult is one finished repair job.
type repairResult struct {
	job     repairJob
	latency time.Duration
	pool    *pool.Pool
	res     core.Result
	err     error
	// Traced pass only: the learner's sampler contention, and every
	// repairing patch the final cycle's probes found. core keeps whichever
	// repairing probe finishes first, so when one cycle finds several
	// repairs the reported patch depends on scheduling; the checks accept
	// any of them.
	sampler int64
	repairs map[string]bool
}

// found reports whether patch is one of the repairs the traced run found.
func (r repairResult) found(patch []mutation.Mutation) bool {
	return patch == nil || r.repairs[fmt.Sprint(patchIDs(patch))]
}

// generateRows builds the corpus scenarios.
func generateRows() []*scenario.Scenario {
	scs := make([]*scenario.Scenario, len(corpusRows))
	for i, name := range corpusRows {
		scs[i] = scenario.Generate(scenario.MustByName(name))
	}
	return scs
}

// repairConfig is the online-phase configuration cmd/mwrepair uses for a
// registry scenario.
func repairConfig(sc *scenario.Scenario, st *store.Store) core.Config {
	return core.Config{
		MaxIter:          repairMaxIter,
		Workers:          probeWorkers,
		MaxX:             sc.Profile.Options,
		Store:            st,
		CongestionLambda: sc.Profile.CongestionLambda,
	}
}

// runRepair is one untraced job, the CLI's code path: phase-1 pool, then
// core.RepairWithAlgorithm, with the CLI's RNG split order.
func runRepair(sc *scenario.Scenario, j repairJob, st *store.Store) repairResult {
	t0 := time.Now()
	r := rng.New(j.seed)
	pl := sc.BuildPoolStored(context.Background(), probeWorkers, r.Split(), nil, st)
	res, err := core.RepairWithAlgorithm(context.Background(), j.alg, pl, sc.Suite, r.Split(), repairConfig(sc, st))
	return repairResult{job: j, latency: time.Since(t0), pool: pl, res: res, err: err}
}

// repairBench is the corpus workload, or with rerun set the rerun
// workload.
type repairBench struct {
	rerun bool
	scs   []*scenario.Scenario
	dir   string
	st    *store.Store
	// prime is rerun's priming pass: the cold results every warm job must
	// reproduce.
	prime   []repairResult
	results []repairResult
}

func (b *repairBench) run(o runOpts) (*outcome, error) {
	out := &outcome{}
	if b.rerun {
		if err := b.primeStore(o, out); err != nil {
			return nil, err
		}
	}
	err := out.timeSetUp(func() error {
		b.scs = generateRows()
		if !b.rerun {
			dir, err := os.MkdirTemp(o.dir, "corpus-store-")
			if err != nil {
				return err
			}
			b.dir = dir
		}
		st, err := store.Open(store.Options{Dir: b.dir})
		b.st = st
		return err
	}, func() error { return b.closeStore(!b.rerun) })
	if err != nil {
		return nil, err
	}

	slots := o.slots(corpusSlotsPerSecond)
	if b.rerun {
		slots = o.slots(rerunSlotsPerSecond)
	}
	start := time.Now()
	for slot := 0; slot < slots; slot++ {
		jobs := repairSlot(o.seed, slot)
		if b.rerun {
			jobs = b.primedSlot(slot)
		}
		for _, j := range jobs {
			b.results = append(b.results, runRepair(b.scs[j.row], j, b.st))
		}
	}
	out.wall = time.Since(start)

	for i, r := range b.results {
		js := jobStat{latency: ms(r.latency), solved: r.res.Repaired}
		if err := b.check(i, r); err != nil {
			out.failf("job %d (%v): %v", i, r.job, err)
			js.latency = inf
		} else {
			js.ok = true
		}
		out.jobs = append(out.jobs, js)
	}
	if d := b.st.Stats().Dropped; d != 0 {
		out.failf("store dropped %d records", d)
	}
	return out, nil
}

// primeStore runs the cold corpus pass rerun replays over a store of its
// own, then closes the store so set-up reopens it.
func (b *repairBench) primeStore(o runOpts, out *outcome) error {
	dir, err := os.MkdirTemp(o.dir, "rerun-store-")
	if err != nil {
		return err
	}
	b.dir = dir
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	b.scs = generateRows()
	for slot := 0; slot < min(primeSlots, o.slots(rerunSlotsPerSecond)); slot++ {
		for _, j := range repairSlot(o.seed, slot) {
			r := runRepair(b.scs[j.row], j, st)
			if r.err != nil {
				out.failf("priming job %v: %v", j, r.err)
			}
			b.prime = append(b.prime, r)
		}
	}
	if d := st.Stats().Dropped; d != 0 {
		out.failf("priming store dropped %d records", d)
	}
	return st.Close()
}

// primedSlot lists the jobs of a measured rerun slot: the primed slots in
// order, over and over.
func (b *repairBench) primedSlot(slot int) []repairJob {
	n := len(corpusRows)
	first := slot * n % len(b.prime)
	jobs := make([]repairJob, n)
	for i := range jobs {
		jobs[i] = b.prime[first+i].job
	}
	return jobs
}

// check verifies one untraced job's output.
func (b *repairBench) check(i int, r repairResult) error {
	if r.err != nil {
		return r.err
	}
	sc := b.scs[r.job.row]
	if r.res.Repaired {
		if err := verifyPatch(r.pool.Original(), sc.Suite, r.res.Patch, r.res.Program.String()); err != nil {
			return err
		}
	}
	if !b.rerun {
		return nil
	}
	if r.res.FitnessEvals != 0 {
		return fmt.Errorf("warm job ran %d suites, want 0", r.res.FitnessEvals)
	}
	if ps := r.pool.Stats(); int64(ps.Evaluated) != ps.CacheHits {
		return fmt.Errorf("warm pool build ran %d suites, want 0", int64(ps.Evaluated)-ps.CacheHits)
	}
	// The patches themselves are compared in the traced pass, against every
	// repair the final cycle found (see repairResult.repairs).
	cold := b.prime[i%len(b.prime)]
	if r.res.Iterations != cold.res.Iterations || r.res.Probes != cold.res.Probes || r.res.Repaired != cold.res.Repaired {
		return fmt.Errorf("warm run differs from cold: %s, cold %s", counts(r.res), counts(cold.res))
	}
	return nil
}

// closeStore closes the open store, removing its directory when asked.
func (b *repairBench) closeStore(remove bool) error {
	if b.st == nil {
		return nil
	}
	err := b.st.Close()
	b.st = nil
	if remove {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func (b *repairBench) close() error { return b.closeStore(false) }

// traced replays the untraced pass job for job. corpus gets a fresh store
// of its own, so every job sees the store contents its untraced twin saw;
// rerun reopens the primed store, which the untraced pass only read.
func (b *repairBench) traced(o runOpts, tr *tracer, out *outcome) (map[string]float64, error) {
	if err := b.closeStore(!b.rerun); err != nil {
		return nil, err
	}
	if !b.rerun {
		dir, err := os.MkdirTemp(o.dir, "corpus-traced-")
		if err != nil {
			return nil, err
		}
		b.dir = dir
	}
	t := tr.now()
	st, err := store.Open(store.Options{Dir: b.dir})
	if err != nil {
		return nil, err
	}
	tr.add(layerStoreOpen, -1, -1, t, tr.now())
	b.st = st

	var traced []repairResult
	for i, u := range b.results {
		r := tracedRepair(tr, layerJob, i, b.scs[u.job.row], u.job.alg, u.job.seed, st)
		traced = append(traced, r)
		if r.err != nil || u.err != nil {
			continue
		}
		if !sameCounts(r.res, u.res) || !r.found(u.res.Patch) {
			out.failf("traced job %d (%v) differs from untraced: %s vs %s", i, u.job, counts(r.res), counts(u.res))
		}
		if b.rerun {
			if cold := b.prime[i%len(b.prime)]; !r.found(cold.res.Patch) {
				out.failf("job %d (%v): cold patch %v is not among the repairs the warm run found", i, u.job, patchIDs(cold.res.Patch))
			}
		}
	}
	t = tr.now()
	err = st.Close()
	tr.add(layerStoreClose, -1, -1, t, tr.now())
	b.st = nil
	if err != nil {
		return nil, err
	}
	ss := st.Stats()
	if ss.Dropped != 0 {
		out.failf("traced store dropped %d records", ss.Dropped)
	}

	m := repairCounts(traced)
	m["store.appends"] = float64(ss.Appends)
	m["store.dropped"] = float64(ss.Dropped)
	m["store.records"] = float64(ss.EvalRecords + ss.PoolRecords)
	return m, nil
}

// repairCounts turns the traced repairs' counters into per-layer metrics.
func repairCounts(traced []repairResult) map[string]float64 {
	var evaluated, safe, storeHits, poolRuns, warm, cycles, probes, evals, hits, dedup, contention, sampler float64
	for _, r := range traced {
		ps := r.pool.Stats()
		evaluated += float64(ps.Evaluated)
		safe += float64(ps.Safe)
		storeHits += float64(ps.StoreHits)
		// Every candidate is one safety lookup: a cache hit or a suite run.
		poolRuns += float64(int64(ps.Evaluated) - ps.CacheHits)
		warm += float64(r.res.WarmEntries)
		cycles += float64(r.res.Iterations)
		probes += float64(r.res.Probes)
		evals += float64(r.res.FitnessEvals)
		hits += float64(r.res.CacheHits)
		dedup += float64(r.res.DedupSuppressed)
		contention += float64(r.res.ShardContention)
		sampler += float64(r.sampler)
	}
	n := float64(len(traced))
	return map[string]float64{
		"pool.candidates":            ratio(evaluated, n),
		"pool.safe_rate":             ratio(safe, evaluated),
		"pool.store_hit_share":       ratio(storeHits, evaluated),
		"cycles_per_job":             ratio(cycles, n),
		"probes_per_job":             ratio(probes, n),
		"evals_per_job":              ratio(evals, n),
		"lang.suite_runs_per_job":    ratio(poolRuns+evals, n),
		"mwu.sampler_contention":     sampler,
		"testsuite.hit_share":        ratio(hits, hits+evals),
		"testsuite.dedup_suppressed": dedup,
		"testsuite.shard_contention": contention,
		"testsuite.warm_entries":     ratio(warm, n),
	}
}

// tracedRepair is runRepair with spans under a root span of the given
// layer: it builds the pool as the CLI does, then drives mwu.Run itself
// through a copy of core's repair oracle so the probe path's layers can
// be timed. The extra ProgramKey call prices the cache key on its own; it
// duplicates work Outcome does and counts toward the tracing overhead.
func tracedRepair(tr *tracer, root layer, i int, sc *scenario.Scenario, alg string, seed uint64, st *store.Store) repairResult {
	start := tr.now()
	jobSpan := tr.open(root, i, -1, start)
	r := rng.New(seed)
	t := tr.now()
	pl := sc.BuildPoolStored(context.Background(), probeWorkers, r.Split(), nil, st)
	tr.add(layerPoolBuild, i, jobSpan, t, tr.now())

	// core.RepairWithAlgorithm's split order: the job RNG's second child
	// seeds the learner and then the run.
	cfg := repairConfig(sc, st)
	r2 := r.Split()
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: alg, K: core.Arms(pl, cfg)}, r2.Split())
	if err != nil {
		tr.close(jobSpan, tr.now())
		return repairResult{pool: pl, err: err}
	}
	runner := testsuite.NewRunner(sc.Suite)
	if st != nil {
		runner.AttachStore(st)
		t = tr.now()
		runner.WarmStart()
		tr.add(layerWarmStart, i, jobSpan, t, tr.now())
	}

	runSpan := tr.open(layerRun, i, jobSpan, tr.now())
	l, tl := timeLearner(learner, tr, i, runSpan)
	o := &tracedOracle{pl: pl, runner: runner, k: learner.K(), tr: tr, job: i, phase: &tl.phase, repairs: map[string]bool{}}
	rr := mwu.Run(context.Background(), l, o, r2.Split(), mwu.RunConfig{
		MaxIter:          cfg.MaxIter,
		Workers:          cfg.Workers,
		CongestionLambda: cfg.CongestionLambda,
		OnIteration:      func(int, mwu.Learner) bool { return o.repaired() },
	})
	tl.finish()
	end := tr.now()
	tr.close(runSpan, end)
	tr.close(jobSpan, end)

	patch, mutant := o.repair()
	m := learner.Metrics()
	return repairResult{
		latency: time.Duration(end - start),
		pool:    pl,
		sampler: m.SamplerContention,
		repairs: o.repairs,
		res: core.Result{
			Repaired:        patch != nil,
			Patch:           patch,
			Program:         mutant,
			Iterations:      rr.Iterations,
			Probes:          m.Probes,
			FitnessEvals:    runner.Evals(),
			CacheHits:       runner.CacheHits(),
			DedupSuppressed: runner.DedupSuppressed(),
			ShardContention: runner.ShardContention(),
			WarmEntries:     runner.WarmEntries(),
		},
	}
}

// tracedOracle is core's repair oracle (throughput reward at the default
// scale) with a span around each layer a probe passes through. It must
// draw from the probe's RNG exactly as core's does, or the traced pass
// would repair different programs than the untraced one.
type tracedOracle struct {
	pl     *pool.Pool
	runner *testsuite.Runner
	k      int
	tr     *tracer
	job    int
	phase  *atomic.Int64

	mu      sync.Mutex
	patch   []mutation.Mutation
	mutant  *lang.Program
	repairs map[string]bool
}

func (o *tracedOracle) Arms() int { return o.k }

func (o *tracedOracle) Probe(arm int, r *rng.RNG) bandit.Reward {
	parent := int(o.phase.Load())
	x := arm + 1
	t0 := o.tr.now()
	mutant, muts := o.pl.ApplySample(x, r)
	t1 := o.tr.now()
	testsuite.ProgramKey(mutant)
	t2 := o.tr.now()
	safe, repair := o.runner.Outcome(mutant)
	t3 := o.tr.now()
	o.tr.add(layerApply, o.job, parent, t0, t1)
	o.tr.add(layerKey, o.job, parent, t1, t2)
	o.tr.add(layerLookup, o.job, parent, t2, t3)
	if repair {
		o.mu.Lock()
		if o.patch == nil {
			o.patch, o.mutant = muts, mutant
		}
		o.repairs[fmt.Sprint(patchIDs(muts))] = true
		o.mu.Unlock()
		return 1
	}
	if !safe {
		return 0
	}
	if r.Bool(min(1, float64(x)/core.DefaultThroughputScale)) {
		return 1
	}
	return 0
}

func (o *tracedOracle) repaired() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.patch != nil
}

func (o *tracedOracle) repair() ([]mutation.Mutation, *lang.Program) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.patch, o.mutant
}

// verifyPatch re-applies a patch to the original program and checks that
// it gives the reported program and that the program passes the whole
// suite on a fresh, uncached runner.
func verifyPatch(original *lang.Program, suite *testsuite.Suite, patch []mutation.Mutation, program string) error {
	for _, m := range patch {
		if err := m.Validate(original.Len()); err != nil {
			return fmt.Errorf("patch: %w", err)
		}
	}
	applied := mutation.Apply(original, patch)
	if applied.String() != program {
		return fmt.Errorf("patch %v does not rebuild the reported program", patchIDs(patch))
	}
	if f := testsuite.NewRunner(suite).EvalNoCache(applied); !f.Repair() {
		return fmt.Errorf("patch %v fails the suite (%v)", patchIDs(patch), f)
	}
	return nil
}

func patchIDs(patch []mutation.Mutation) []string {
	ids := make([]string, len(patch))
	for i, m := range patch {
		ids[i] = m.ID()
	}
	return ids
}

// sameCounts compares the counts the traced pass must reproduce exactly.
func sameCounts(a, b core.Result) bool {
	return a.Repaired == b.Repaired && a.Iterations == b.Iterations && a.Probes == b.Probes &&
		a.FitnessEvals == b.FitnessEvals && a.CacheHits == b.CacheHits
}

func counts(r core.Result) string {
	return fmt.Sprintf("iterations %d probes %d evals %d hits %d patch %v",
		r.Iterations, r.Probes, r.FitnessEvals, r.CacheHits, patchIDs(r.Patch))
}
