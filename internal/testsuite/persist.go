// Store integration: identity keys, write-behind persistence of computed
// verdicts, and warm-starting the cache from disk.
//
// Determinism argument: an evaluation verdict is a pure function of
// (program, suite) — the interpreter is deterministic and the suite is
// fixed. Preloading the cache with stored verdicts therefore changes
// only *which* lookups pay for a suite execution, never what any lookup
// answers, so a warm-started repair run draws the same RNG sequence,
// probes the same candidates, and emits the same trace and patch as a
// cold one. The suite fingerprint is what makes the purity argument
// safe across runs: records only warm a cache whose suite hashes
// identically, so a changed test suite silently invalidates the store's
// prior knowledge instead of corrupting a run.
package testsuite

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/lang"
	"repro/internal/store"
)

// ProgramKey returns the cache/store identity of a program: a structural
// FNV-1a 64 hash of its statements that allocates nothing. Two programs
// share a key exactly when they render the same String().
func ProgramKey(p *lang.Program) uint64 { return programKey(p) }

// keyScheme tags the program-key encoding in every fingerprint. Records
// written under another encoding (scheme 1 hashed each statement's text)
// then sit under fingerprints no current suite produces, so a store
// written before the change warm-starts nothing instead of answering
// lookups with keys from a different hash.
const keyScheme = "K\x02"

// Fingerprint hashes the program-key scheme and the suite's full content
// — test names, inputs, expected outputs, step bounds, and the
// positive/negative split. Stored evaluation records are keyed by this
// fingerprint, so any change to the suite (even reordering tests), or
// to how programKey encodes programs, keys new records rather than reusing
// stale ones.
func (s *Suite) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(keyScheme))
	var buf [8]byte
	w64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	section := func(label byte, tests []Test) {
		h.Write([]byte{label})
		w64(int64(len(tests)))
		for _, tc := range tests {
			h.Write([]byte(tc.Name))
			h.Write([]byte{0})
			w64(int64(len(tc.Input)))
			for _, v := range tc.Input {
				w64(v)
			}
			w64(int64(len(tc.Want)))
			for _, v := range tc.Want {
				w64(v)
			}
			w64(int64(tc.MaxSteps))
		}
	}
	section('P', s.Positive)
	section('N', s.Negative)
	return h.Sum64()
}

// AttachStore enables write-behind persistence: every completed
// evaluation the runner computes is recorded in st (batched off the
// probe hot path by the store's write-behind buffer). Call before the
// first evaluation; not safe to call concurrently with probes.
func (r *Runner) AttachStore(st *store.Store) {
	r.store = st
	r.suiteFP = r.suite.Fingerprint()
}

// WarmStart preloads the cache with every stored verdict whose
// suite fingerprint matches this runner's suite, and returns how many
// entries it loaded. Entries loaded here only ever *add* knowledge the
// runner would otherwise recompute; they are skipped when the cache
// already knows at least as much. Requires AttachStore; returns 0
// otherwise. Not safe to call concurrently with probes.
func (r *Runner) WarmStart() int {
	if r.store == nil {
		return 0
	}
	loaded := 0
	for _, rec := range r.store.Evals(r.suiteFP) {
		e := r.entries[rec.Prog]
		if e == nil {
			e = &cacheEntry{}
			r.entries[rec.Prog] = e
		}
		if rec.Level <= e.level {
			continue
		}
		e.level = rec.Level
		e.safe = rec.Safe
		e.repair = rec.Repair
		if rec.Level >= levelFitness {
			e.fitness = Fitness{
				PosPassed: int(rec.PosPassed), NegPassed: int(rec.NegPassed),
				PosTotal: int(rec.PosTotal), NegTotal: int(rec.NegTotal),
			}
		}
		e.warm = true
		loaded++
	}
	r.warmEntries.Add(int64(loaded))
	return loaded
}

// WarmEntries returns how many cache entries WarmStart loaded from the
// store.
func (r *Runner) WarmEntries() int64 { return r.warmEntries.Load() }

// WarmHits returns how many cache hits were answered by warm (store-
// loaded) entries — evaluations this process never had to run because a
// previous run already had. An entry upgraded by local computation stops
// counting as warm.
func (r *Runner) WarmHits() int64 { return r.warmHits.Load() }

// Lookups returns the number of completed probe lookups: cache hits plus
// executed evaluations. Every completed lookup is exactly one or the
// other, which makes this total invariant across worker counts AND cache
// warmth — a warm start converts evals into hits one for one — so it is
// the cache figure safe to emit into determinism-checked traces.
func (r *Runner) Lookups() int64 { return r.CacheHits() + r.evals.Load() }

// persist records a completed, cache-advancing computation in the
// attached store. Called off the cache lock; the store's write-behind
// buffer keeps it off the hot path.
func (r *Runner) persist(key uint64, level uint8, res probeResult) {
	if r.store == nil {
		return
	}
	rec := store.EvalRecord{
		Prog: key, Suite: r.suiteFP, Level: level,
		Safe: res.safe, Repair: res.repair,
	}
	if level >= levelFitness {
		rec.PosPassed = uint32(res.fitness.PosPassed)
		rec.NegPassed = uint32(res.fitness.NegPassed)
		rec.PosTotal = uint32(res.fitness.PosTotal)
		rec.NegTotal = uint32(res.fitness.NegTotal)
	}
	r.store.PutEval(rec)
}
