// Package pool implements the paper's precompute phase (Sec. III-C): a
// one-time, embarrassingly-parallel construction of a large pool of
// individually safe mutations that the online repair phase later composes.
//
// Precomputation removes the synchronization bottleneck the paper
// describes: if threads generated safe mutations on demand inside the
// online loop, every synchronization block would wait for the slowest
// thread (with 64 threads, the worst 10% of generation costs are incurred
// almost every iteration). With a precomputed pool, each online probe is a
// single test-suite evaluation.
//
// Candidate generation is cheap and sequential (so pool contents are
// deterministic under a fixed seed, independent of worker count);
// candidate evaluation — the expensive part — fans out across goroutines.
package pool

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// Pool is a set of individually safe mutations for one program, in
// original-program coordinates.
type Pool struct {
	original  *lang.Program
	mutations []mutation.Mutation
	// ids indexes the pool by mutation identity so membership checks are
	// O(1) instead of a scan over the whole pool (scenario construction
	// calls Add/Contains per canonical mutation against pools of hundreds
	// of entries). It is built lazily on first use and invalidated by bulk
	// rewrites (Revalidate).
	ids   map[string]struct{}
	stats Stats
}

// index returns the identity set, (re)building it from the mutation list
// when missing.
func (pl *Pool) index() map[string]struct{} {
	if pl.ids == nil {
		pl.ids = make(map[string]struct{}, len(pl.mutations))
		for _, m := range pl.mutations {
			pl.ids[m.ID()] = struct{}{}
		}
	}
	return pl.ids
}

// Stats records the cost of building (and updating) a pool.
type Stats struct {
	// Attempts is the number of candidate mutations generated.
	Attempts int
	// Evaluated is the number of candidates whose safety was actually
	// tested (distinct candidates).
	Evaluated int
	// Safe is the number found safe (== final pool size after build).
	Safe int
	// Duplicates is the number of candidates skipped as already seen —
	// the repeated-generation waste the paper attributes to on-the-fly
	// approaches.
	Duplicates int
	// CacheHits and DedupSuppressed are the evaluation runner's cache
	// observability for the build (or revalidation): safety checks
	// answered from the fitness cache, and checks suppressed because an
	// identical mutant's evaluation was already in flight on another
	// worker. DedupSuppressed depends on goroutine scheduling, so Save
	// leaves it out to keep a saved pool a function of its inputs.
	CacheHits       int64
	DedupSuppressed int64 `json:"-"`
	// StoreHits counts safety checks answered by verdicts a previous
	// run persisted (warm cache entries loaded from Config.Store) —
	// precompute work avoided entirely. WarmEntries is how many stored
	// verdicts were preloaded before the build. Both zero without a
	// store.
	StoreHits   int64
	WarmEntries int64
	// Degraded reports the build did not run to its natural end: the
	// context was cancelled. The pool is still valid — just possibly
	// smaller than a complete build.
	Degraded bool
}

// SafeRate returns the fraction of evaluated candidates that were safe
// (the paper reports ≈30% for whole-statement mutations on C and Java).
func (s Stats) SafeRate() float64 {
	if s.Evaluated == 0 {
		return 0
	}
	return float64(s.Safe) / float64(s.Evaluated)
}

// Export publishes the build statistics into an obs.Registry under the
// given prefix (e.g. "pool"), alongside the other subsystems' counters.
func (s Stats) Export(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".attempts").Set(int64(s.Attempts))
	reg.Counter(prefix + ".evaluated").Set(int64(s.Evaluated))
	reg.Counter(prefix + ".safe").Set(int64(s.Safe))
	reg.Counter(prefix + ".duplicates").Set(int64(s.Duplicates))
	reg.Counter(prefix + ".cache_hits").Set(s.CacheHits)
	reg.Counter(prefix + ".dedup_suppressed").Set(s.DedupSuppressed)
	reg.Counter(prefix + ".store_hits").Set(s.StoreHits)
	reg.Counter(prefix + ".warm_entries").Set(s.WarmEntries)
	reg.Gauge(prefix + ".safe_rate").Set(s.SafeRate())
}

// Config controls precomputation.
type Config struct {
	// Target is the desired pool size. It caps candidate generation, not
	// retention: generation stops once the pool reaches Target, but every
	// safe candidate of the final evaluated batch is kept (their
	// evaluations are already paid for), so the pool may exceed Target by
	// up to one batch.
	Target int
	// Workers is the parallel evaluation width; 0 means 8.
	Workers int
	// Trace, when active, receives one pool_batch event per evaluation
	// batch, emitted from the generating goroutine after the batch barrier
	// — deterministic at any Workers count, like the pool contents
	// themselves.
	Trace *obs.Tracer
	// Store, when non-nil, warm-starts the safety-evaluation cache from
	// previously persisted verdicts (candidates a prior build already
	// judged are free) and persists this build's verdicts for future
	// runs. The candidate sequence, batches, trace events and final pool
	// are byte-identical with or without a store — only the number of
	// suite executions changes.
	Store *store.Store
}

// attemptsPerTarget caps candidate generation at this many attempts per
// pool entry wanted.
const attemptsPerTarget = 200

func (c *Config) fill() {
	if c.Target <= 0 {
		c.Target = 100
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
}

// Precompute builds a pool of safe mutations for the program under the
// suite's positive (regression) tests. Safety means every positive test
// still passes; negative tests are deliberately excluded — a safe mutation
// need not repair anything, and the pool is reusable across future bugs in
// the same program (Sec. III-C).
//
// Cancelling the context stops the build at the next batch boundary and
// returns the partial pool with Stats.Degraded set; the evaluation
// workers are always drained before return. Candidate generation stops
// after attemptsPerTarget × Target attempts, so an unsatisfiable target
// cannot spin forever.
func Precompute(ctx context.Context, p *lang.Program, suite *testsuite.Suite, cfg Config, seed *rng.RNG) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.fill()
	covered := testsuite.CoveredIndices(p, suite)
	if len(covered) == 0 {
		panic("pool: test suite covers no statements")
	}
	// Safety is judged against positive tests only.
	posSuite := &testsuite.Suite{Positive: suite.Positive}
	runner := testsuite.NewRunner(posSuite)
	if cfg.Store != nil {
		runner.AttachStore(cfg.Store)
		runner.WarmStart()
	}

	maxAttempts := attemptsPerTarget * cfg.Target
	pl := &Pool{original: p.Clone()}
	seen := make(map[string]struct{})

	const batchSize = 64
	type cand struct {
		m    mutation.Mutation
		safe bool
	}
	// Persistent safety-evaluation workers for the whole build: candidate
	// batches are dispatched over a channel instead of spawning a
	// goroutine per candidate per batch.
	jobs := make(chan *cand)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			for c := range jobs {
				c.safe = runner.Safe(mutation.Apply(p, []mutation.Mutation{c.m}))
				wg.Done()
			}
		}()
	}
	defer close(jobs)

	batchIdx := 0
	for pl.stats.Attempts < maxAttempts && len(pl.mutations) < cfg.Target {
		if ctx.Err() != nil {
			pl.stats.Degraded = true
			break
		}
		// Sequential, deterministic candidate generation.
		batch := make([]cand, 0, batchSize)
		for len(batch) < batchSize && pl.stats.Attempts < maxAttempts {
			m := mutation.Random(p, covered, seed)
			pl.stats.Attempts++
			if _, dup := seen[m.ID()]; dup {
				pl.stats.Duplicates++
				continue
			}
			seen[m.ID()] = struct{}{}
			batch = append(batch, cand{m: m})
		}
		if len(batch) == 0 {
			break
		}
		// Parallel, expensive safety evaluation.
		wg.Add(len(batch))
		for i := range batch {
			jobs <- &batch[i]
		}
		wg.Wait()
		pl.stats.Evaluated += len(batch)
		// Deterministic append in generation order. Every safe candidate
		// is retained — its evaluation is already paid for — even when the
		// final batch overshoots Target; only generation is capped by the
		// loop condition above.
		safeInBatch := 0
		for _, c := range batch {
			if c.safe {
				pl.mutations = append(pl.mutations, c.m)
				safeInBatch++
			}
		}
		batchIdx++
		if cfg.Trace.Active() {
			cfg.Trace.Emit(obs.Event{Type: obs.TypePoolBatch, Iter: batchIdx,
				N: int64(len(batch)), Safe: int64(safeInBatch),
				Attempts: int64(pl.stats.Attempts), Dups: int64(pl.stats.Duplicates)})
		}
	}
	pl.stats.Safe = len(pl.mutations)
	pl.stats.CacheHits = runner.CacheHits()
	pl.stats.DedupSuppressed = runner.DedupSuppressed()
	pl.stats.StoreHits = runner.WarmHits()
	pl.stats.WarmEntries = runner.WarmEntries()
	return pl
}

// Original returns (a copy of) the program the pool was built for.
func (pl *Pool) Original() *lang.Program { return pl.original.Clone() }

// Size returns the number of safe mutations in the pool.
func (pl *Pool) Size() int { return len(pl.mutations) }

// Stats returns the build statistics.
func (pl *Pool) Stats() Stats { return pl.stats }

// Mutations returns a copy of the pool's mutations.
func (pl *Pool) Mutations() []mutation.Mutation {
	return append([]mutation.Mutation(nil), pl.mutations...)
}

// Sample draws x distinct pool mutations uniformly at random. It panics if
// x exceeds the pool size.
func (pl *Pool) Sample(x int, r *rng.RNG) []mutation.Mutation {
	if x > len(pl.mutations) {
		panic(fmt.Sprintf("pool: sample of %d from pool of %d", x, len(pl.mutations)))
	}
	idx := r.SampleWithoutReplacement(len(pl.mutations), x)
	out := make([]mutation.Mutation, x)
	for i, j := range idx {
		out[i] = pl.mutations[j]
	}
	return out
}

// ApplySample applies x random distinct pool mutations to the original
// program and returns the mutant along with the mutations used. The mutant
// shares its statements with the pool's private original (mutation.Apply);
// statements are immutable (lang.Stmt), so Clone the mutant before editing
// it.
func (pl *Pool) ApplySample(x int, r *rng.RNG) (*lang.Program, []mutation.Mutation) {
	muts := pl.Sample(x, r)
	return mutation.Apply(pl.original, muts), muts
}

// Add appends a mutation to the pool if it is not already present,
// returning whether it was added. The caller asserts safety; Add validates
// only structural bounds. Scenario construction uses this to guarantee the
// canonical repairing mutation is inside the frozen pool sample (the
// paper's benchmark defects are likewise known to be repairable within the
// GenProg operator space).
func (pl *Pool) Add(m mutation.Mutation) bool {
	if err := m.Validate(pl.original.Len()); err != nil {
		panic(err)
	}
	id := m.ID()
	ids := pl.index()
	if _, dup := ids[id]; dup {
		return false
	}
	ids[id] = struct{}{}
	pl.mutations = append(pl.mutations, m)
	pl.stats.Safe = len(pl.mutations)
	return true
}

// Revalidate re-checks every pool mutation against an updated suite and
// drops those no longer safe, returning how many were removed. This is the
// incremental-update path of Sec. III-C: when a repaired bug's failing
// test joins the regression suite, the pool is rerun on the new tests
// rather than rebuilt.
func (pl *Pool) Revalidate(suite *testsuite.Suite, workers int) int {
	if workers <= 0 {
		workers = 8
	}
	posSuite := &testsuite.Suite{Positive: suite.Positive}
	runner := testsuite.NewRunner(posSuite)
	keep := make([]bool, len(pl.mutations))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(len(pl.mutations))
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				mutant := mutation.Apply(pl.original, []mutation.Mutation{pl.mutations[i]})
				keep[i] = runner.Safe(mutant)
				wg.Done()
			}
		}()
	}
	for i := range pl.mutations {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var kept []mutation.Mutation
	for i, k := range keep {
		if k {
			kept = append(kept, pl.mutations[i])
		}
	}
	removed := len(pl.mutations) - len(kept)
	pl.mutations = kept
	pl.ids = nil // identity index is stale after the bulk rewrite
	pl.stats.Safe = len(kept)
	pl.stats.CacheHits = runner.CacheHits()
	pl.stats.DedupSuppressed = runner.DedupSuppressed()
	return removed
}

// poolFile is the serialized form.
type poolFile struct {
	Source    string              `json:"source"`
	Mutations []mutation.Mutation `json:"mutations"`
	Stats     Stats               `json:"stats"`
}

// Save writes the pool as JSON (program source + mutation list + stats).
func (pl *Pool) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(poolFile{
		Source:    pl.original.String(),
		Mutations: pl.mutations,
		Stats:     pl.stats,
	})
}

// Load reads a pool written by Save and validates every mutation against
// the embedded program.
func Load(r io.Reader) (*Pool, error) {
	var f poolFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("pool: decode: %w", err)
	}
	prog, err := lang.Parse(f.Source)
	if err != nil {
		return nil, fmt.Errorf("pool: embedded program: %w", err)
	}
	for _, m := range f.Mutations {
		if err := m.Validate(prog.Len()); err != nil {
			return nil, err
		}
	}
	return &Pool{original: prog, mutations: f.Mutations, stats: f.Stats}, nil
}
