// Package testsuite provides regression test suites for TinyLang programs
// and the machinery APR needs around them: pass/fail evaluation, fitness,
// coverage tracing (mutations are restricted to covered lines, Sec. III of
// the paper), result caching keyed by program identity (identical mutants
// are common and the paper notes their repeated evaluation as a cost), and
// a fitness-evaluation counter — the cost currency of the paper's
// Sec. IV-G comparison.
package testsuite

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
	"repro/internal/store"
)

// Test is one test case: an input vector and the expected output vector.
type Test struct {
	// Name identifies the test in reports.
	Name string
	// Input is the value queue consumed by the program's input statements.
	Input []int64
	// Want is the exact expected output sequence.
	Want []int64
	// MaxSteps bounds execution for this test; 0 means the interpreter
	// default. Scenario suites set a tight bound so mutants with
	// accidental infinite loops fail fast.
	MaxSteps int
}

// Suite is a regression test suite plus the bug-inducing tests that expose
// the defect under repair. The original (defective) program passes all
// Positive tests and fails at least one Negative test; a repair passes
// both sets.
type Suite struct {
	// Positive are the required regression tests.
	Positive []Test
	// Negative are the bug-inducing tests.
	Negative []Test
}

// All returns positive tests followed by negative tests.
func (s *Suite) All() []Test {
	out := make([]Test, 0, len(s.Positive)+len(s.Negative))
	out = append(out, s.Positive...)
	out = append(out, s.Negative...)
	return out
}

// RunTest executes one test on compiled code: it passes iff the program
// runs without a runtime error and produces exactly the expected output.
// The run stops at the first printed value that cannot match Want, which
// leaves the verdict unchanged. Compile a program once for all the tests
// it runs: a compile costs about as much as a run.
func RunTest(c *lang.Code, tc Test) bool {
	return c.Passes(tc.Input, tc.Want, tc.MaxSteps)
}

// Fitness is the outcome of evaluating a program on a suite.
type Fitness struct {
	// PosPassed counts passing positive (regression) tests.
	PosPassed int
	// NegPassed counts passing negative (bug-inducing) tests.
	NegPassed int
	// PosTotal and NegTotal record the suite sizes for ratio reporting.
	PosTotal, NegTotal int
}

// Safe reports whether all positive tests pass — the paper's definition of
// a safe program variant (required functionality retained).
func (f Fitness) Safe() bool { return f.PosPassed == f.PosTotal }

// Repair reports whether the program passes the full suite, i.e.
// f(P,S) = |S|: a repair.
func (f Fitness) Repair() bool {
	return f.PosPassed == f.PosTotal && f.NegPassed == f.NegTotal
}

// Weighted returns the GenProg-style weighted fitness used by the search
// baselines: positive tests weight 1, negative tests weight wNeg (GenProg
// uses 10).
func (f Fitness) Weighted(wNeg float64) float64 {
	return float64(f.PosPassed) + wNeg*float64(f.NegPassed)
}

func (f Fitness) String() string {
	return fmt.Sprintf("%d/%d pos, %d/%d neg", f.PosPassed, f.PosTotal, f.NegPassed, f.NegTotal)
}

// knowledge levels of a cache entry, ordered so that a higher level
// answers every question a lower level can: a full Fitness determines the
// Outcome flags, and the Outcome flags determine safety.
const (
	levelNone    uint8 = iota
	levelSafe          // safe flag known (positive tests, short-circuited)
	levelOutcome       // safe and repair flags known
	levelFitness       // full test-by-test Fitness known
)

// cacheEntry is the cache record for one program hash: it carries
// whatever level of knowledge has been computed so far and is upgraded in
// place. The inflight channels implement singleflight deduplication —
// inflight[l] is non-nil while a computation that will raise the entry to
// at least level l is running, and is closed when that result lands,
// waking all goroutines that joined it instead of paying for their own
// evaluation.
type cacheEntry struct {
	level   uint8
	safe    bool
	repair  bool
	fitness Fitness
	// warm marks an entry preloaded from the persistent store by
	// WarmStart; hits on warm entries are evaluations a previous run paid
	// for. Cleared when local computation upgrades the entry.
	warm bool

	inflight [levelFitness + 1]chan struct{}
}

// probeResult is the answer extracted from (or stored into) a cacheEntry.
type probeResult struct {
	safe    bool
	repair  bool
	fitness Fitness
}

// Runner evaluates programs against a fixed suite with memoization and
// evaluation counting. It is safe for concurrent use: MWRepair and the
// baselines evaluate many mutants in parallel goroutines. The cache is one
// map under one mutex, and it deduplicates in-flight work: N goroutines
// probing the same mutant concurrently run the suite once and share the
// result. The lock is held only for map bookkeeping, never while a suite
// runs.
type Runner struct {
	suite *Suite
	// compiler keeps the compiled code of every statement the runner has
	// run. Mutants share their base program's statements, so a probe's
	// evaluation compiles nothing new: it looks its statements up and
	// resolves its jumps.
	compiler lang.Compiler

	mu      sync.Mutex
	entries map[uint64]*cacheEntry // guarded by mu

	evals      atomic.Int64 // fitness evaluations actually executed
	hits       atomic.Int64 // lookups answered without an evaluation
	dedup      atomic.Int64 // hits answered by joining an in-flight evaluation
	contention atomic.Int64 // cache-lock acquisitions that had to wait

	// Optional persistence (persist.go): completed evaluations are
	// written behind to store, and WarmStart preloads the cache from it.
	store       *store.Store
	suiteFP     uint64       // suite.Fingerprint(), set by AttachStore
	warmEntries atomic.Int64 // cache entries preloaded by WarmStart
	warmHits    atomic.Int64 // cache hits answered by warm entries
}

// NewRunner creates a runner over the suite.
func NewRunner(s *Suite) *Runner {
	return &Runner{suite: s, entries: make(map[uint64]*cacheEntry)}
}

// lock acquires the cache lock, counting the acquisition as contended
// when the lock was not immediately available.
func (r *Runner) lock() {
	if !r.mu.TryLock() {
		r.contention.Add(1)
		r.mu.Lock()
	}
}

// answered reports whether e already holds enough knowledge to answer a
// query at the given level. Besides the plain level comparison, a program
// known to be unsafe answers Outcome queries: unsafe implies not a repair.
func answered(e *cacheEntry, level uint8) bool {
	if e.level >= level {
		return true
	}
	return level == levelOutcome && e.level >= levelSafe && !e.safe
}

// resultOf extracts the entry's current knowledge. Call with r.mu held.
func resultOf(e *cacheEntry) probeResult {
	return probeResult{safe: e.safe, repair: e.repair, fitness: e.fitness}
}

// evalAt returns at least the given knowledge level for key, running
// compute at most once across all concurrent callers requesting it.
// Callers that find the same computation already in flight block on its
// channel instead of re-running the suite (counted as both a cache hit —
// an evaluation was avoided — and a dedup suppression).
//
// compute reports whether its result is complete. An incomplete result
// (the evaluation was cancelled mid-suite) is returned to the caller that
// computed it but is neither cached nor counted as an evaluation, and
// woken joiners loop back to re-check the entry instead of trusting it —
// one of them becomes the next computer if the answer is still wanted.
func (r *Runner) evalAt(key uint64, level uint8, compute func() (probeResult, bool)) probeResult {
	for {
		r.lock()
		e := r.entries[key]
		if e == nil {
			e = &cacheEntry{}
			r.entries[key] = e
		}
		if answered(e, level) {
			res, warm := resultOf(e), e.warm
			r.mu.Unlock()
			r.hits.Add(1)
			if warm {
				r.warmHits.Add(1)
			}
			return res
		}
		// Join an in-flight computation that will reach the needed level.
		var ch chan struct{}
		for l := level; l <= levelFitness && ch == nil; l++ {
			ch = e.inflight[l]
		}
		if ch != nil {
			r.mu.Unlock()
			<-ch
			// The computation we joined may have been cancelled and left
			// nothing behind; verify before answering from the entry.
			r.lock()
			res, ok := resultOf(e), answered(e, level)
			r.mu.Unlock()
			if ok {
				r.hits.Add(1)
				r.dedup.Add(1)
				return res
			}
			continue
		}
		// This goroutine computes for everyone who joins at this level.
		ch = make(chan struct{})
		e.inflight[level] = ch
		r.mu.Unlock()

		res, complete := compute()
		if complete {
			r.evals.Add(1)
		}

		r.lock()
		advanced := complete && level > e.level
		if advanced {
			e.level = level
			e.safe = res.safe
			e.repair = res.repair
			e.fitness = res.fitness
			e.warm = false // locally computed now; no longer store-derived
		}
		e.inflight[level] = nil
		r.mu.Unlock()
		close(ch)
		if advanced {
			r.persist(key, level, res)
		}
		return res
	}
}

// programKey hashes the program's structure without rendering it: an
// FNV-1a 64 walk over each statement's kind followed by exactly the fields
// lang.Stmt.String prints for that kind. Strings are length-prefixed and
// every expression node is tagged, so the byte stream is prefix-free and
// decodes to one statement list; two programs therefore share a key
// exactly when they share a String() rendering (up to 64-bit collisions).
// The hash is fixed across processes and platforms because store records
// persist it; changing the encoding means changing the key-scheme tag in
// Suite.Fingerprint. The walk allocates nothing: it sits on every probe's
// path, ahead of the cache lookup.
func programKey(p *lang.Program) uint64 {
	h := keyHash(fnvOffset64)
	for _, s := range p.Stmts {
		h = h.uvarint(uint64(s.Kind))
		switch s.Kind {
		case lang.StmtSet:
			h = h.str(s.Var).expr(s.Expr)
		case lang.StmtPrint:
			h = h.expr(s.Expr)
		case lang.StmtIf:
			h = h.expr(s.Expr).str(s.Target)
		case lang.StmtGoto, lang.StmtLabel:
			h = h.str(s.Target)
		case lang.StmtInput:
			h = h.str(s.Var)
		}
	}
	return uint64(h)
}

// FNV-1a 64 parameters (the ones hash/fnv uses).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyHash is a running FNV-1a 64 state; each method folds in one encoded
// value and returns the new state.
type keyHash uint64

func (h keyHash) byte(b byte) keyHash { return (h ^ keyHash(b)) * fnvPrime64 }

// uvarint folds in v in LEB128 form: short lengths and kinds cost a byte.
func (h keyHash) uvarint(v uint64) keyHash {
	for ; v >= 0x80; v >>= 7 {
		h = h.byte(byte(v) | 0x80)
	}
	return h.byte(byte(v))
}

func (h keyHash) str(s string) keyHash {
	h = h.uvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h
}

// expr folds in one expression tree, each node behind its own tag. A nil
// expression (which String renders as a formatting error) has a tag too.
func (h keyHash) expr(e lang.Expr) keyHash {
	switch e := e.(type) {
	case nil:
		return h.byte(0)
	case *lang.NumLit:
		h = h.byte('n')
		for i := 0; i < 64; i += 8 {
			h = h.byte(byte(uint64(e.Value) >> i))
		}
		return h
	case *lang.VarRef:
		return h.byte('v').str(e.Name)
	case *lang.UnaryExpr:
		return h.byte('u').str(e.Op).expr(e.X)
	case *lang.BinExpr:
		return h.byte('b').str(e.Op).expr(e.L).expr(e.R)
	default:
		panic(fmt.Sprintf("testsuite: unknown expression type %T", e))
	}
}

// Eval evaluates the program on the full suite, counting one fitness
// evaluation (cache hits are free, mirroring the paper's observation that
// duplicate mutants add avoidable cost when not deduplicated).
//
// Cancelling the context stops the evaluation between test cases; the
// partial fitness observed so far is returned but neither cached nor
// counted, so a later call with a live context re-evaluates the program
// from scratch.
func (r *Runner) Eval(ctx context.Context, p *lang.Program) Fitness {
	res := r.evalAt(programKey(p), levelFitness, func() (probeResult, bool) {
		f, complete := r.evalUncached(ctx, p)
		return probeResult{safe: f.Safe(), repair: f.Repair(), fitness: f}, complete
	})
	return res.fitness
}

// EvalNoCache evaluates the program without consulting or populating the
// cache (used by ablations quantifying the cache's value).
func (r *Runner) EvalNoCache(p *lang.Program) Fitness {
	f, _ := r.evalUncached(context.Background(), p)
	r.evals.Add(1)
	return f
}

// evalUncached runs the full suite, checking the context between test
// cases; it reports whether the evaluation ran to completion.
func (r *Runner) evalUncached(ctx context.Context, p *lang.Program) (Fitness, bool) {
	f := Fitness{PosTotal: len(r.suite.Positive), NegTotal: len(r.suite.Negative)}
	c := r.compiler.Compile(p)
	for _, tc := range r.suite.Positive {
		if ctx.Err() != nil {
			return f, false
		}
		if RunTest(c, tc) {
			f.PosPassed++
		}
	}
	for _, tc := range r.suite.Negative {
		if ctx.Err() != nil {
			return f, false
		}
		if RunTest(c, tc) {
			f.NegPassed++
		}
	}
	return f, true
}

// Safe reports whether the program passes every positive test, stopping
// at the first failure. It is answered from any cached knowledge level (a
// full fitness or a prior Outcome both determine safety); a
// short-circuited check counts as one fitness evaluation (the test suite
// was run, just not to completion).
func (r *Runner) Safe(p *lang.Program) bool {
	res := r.evalAt(programKey(p), levelSafe, func() (probeResult, bool) {
		return probeResult{safe: passesAll(r.compiler.Compile(p), r.suite.Positive)}, true
	})
	return res.safe
}

// Outcome classifies the program with the minimum work the repair search
// needs: Safe (all positive tests pass) and Repair (the full suite
// passes), short-circuiting at the first failing test in each phase. For
// the broken mutants that dominate high-composition probes this runs one
// test instead of the whole suite. Results are cached alongside full
// fitness (a cached Fitness answers Outcome directly) and a
// short-circuited check counts as one fitness evaluation.
func (r *Runner) Outcome(p *lang.Program) (safe, repair bool) {
	res := r.evalAt(programKey(p), levelOutcome, func() (probeResult, bool) {
		c := r.compiler.Compile(p)
		safe := passesAll(c, r.suite.Positive)
		return probeResult{safe: safe, repair: safe && passesAll(c, r.suite.Negative)}, true
	})
	return res.safe, res.repair
}

// passesAll reports whether p passes every test, stopping at the first
// failure: the short circuit Safe and Outcome share.
func passesAll(c *lang.Code, tests []Test) bool {
	for _, tc := range tests {
		if !RunTest(c, tc) {
			return false
		}
	}
	return true
}

// Evals returns the number of fitness evaluations executed (excluding
// cache hits) — the Sec. IV-G cost metric.
func (r *Runner) Evals() int64 { return r.evals.Load() }

// CacheHits returns the number of evaluations avoided by deduplication:
// lookups answered from a completed cache entry plus lookups answered by
// joining an in-flight computation (the latter are also counted in
// DedupSuppressed).
func (r *Runner) CacheHits() int64 { return r.hits.Load() }

// DedupSuppressed returns the number of evaluations avoided specifically
// by singleflight deduplication: goroutines that found the same program's
// evaluation already in flight and waited for its result instead of
// re-running the suite.
func (r *Runner) DedupSuppressed() int64 { return r.dedup.Load() }

// ShardContention returns how many cache-lock acquisitions found the lock
// held — a cheap proxy for cache contention under parallel probing. The
// name predates the single lock; result types and exports still carry it.
func (r *Runner) ShardContention() int64 { return r.contention.Load() }

// Coverage returns, for each statement of p, whether any test in the
// suite executes it. The paper restricts all mutations to lines executed
// by the regression test suite; positive and negative tests both count,
// matching fault-localization practice.
func Coverage(p *lang.Program, s *Suite) []bool {
	covered := make([]bool, p.Len())
	c := lang.Compile(p)
	for _, tc := range s.All() {
		res := c.Run(lang.Options{Input: tc.Input, Trace: true})
		for i, c := range res.Coverage {
			if c {
				covered[i] = true
			}
		}
	}
	return covered
}

// CoveredIndices returns the indices of covered statements.
func CoveredIndices(p *lang.Program, s *Suite) []int {
	var out []int
	for i, c := range Coverage(p, s) {
		if c {
			out = append(out, i)
		}
	}
	return out
}
