// Package store is the disk-backed, crash-safe evaluation store: the
// persistence layer under the fitness cache. Evaluation verdicts are
// appended to pack files (pack.go) through a write-behind buffer and
// indexed in memory by suite fingerprint, then program hash. The packs
// are the only on-disk form: Open rebuilds the index by scanning them,
// Compact rewrites them to live records only (compact.go), and Audit
// re-runs Open's recovery on a live store (audit.go).
//
// The store never invents results: every record is a pure function of
// (program, suite), so preloading a cache from the store cannot change
// what a repair run computes — only how many suite executions it pays
// for. That is the warm-start determinism argument, tested end to end in
// internal/core.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// errClosed is returned by disk operations on a closed store.
var errClosed = errors.New("store: closed")

// EvalRecord is one persisted fitness evaluation: the verdict of running
// program Prog against suite Suite, known to knowledge level Level.
type EvalRecord struct {
	Prog  uint64 // program identity hash (testsuite.ProgramKey)
	Suite uint64 // suite fingerprint (Suite.Fingerprint)
	Level uint8  // LevelSafe / LevelOutcome / LevelFitness
	Safe  bool
	// Repair is meaningful at LevelOutcome and above.
	Repair bool
	// Pos/Neg Passed/Total are meaningful at LevelFitness.
	PosPassed uint32
	NegPassed uint32
	PosTotal  uint32
	NegTotal  uint32
}

// Options configures Open. The zero value of every field selects a
// sensible default.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// MaxPackBytes rolls the active pack when it exceeds this size.
	// Default 4 MiB (~100k records per pack).
	MaxPackBytes int64
	// FlushEvery flushes the write-behind buffer when it holds this many
	// pending records. Default 64.
	FlushEvery int
	// FlushInterval flushes the buffer at least this often regardless of
	// batch size. Default 100ms. Negative disables the timer (flushes
	// then happen only on batch-full, Flush, Compact, Audit and Close).
	FlushInterval time.Duration
}

func (o *Options) defaults() {
	if o.MaxPackBytes == 0 {
		o.MaxPackBytes = 4 << 20
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 64
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = 100 * time.Millisecond
	}
}

// maxPending bounds the write-behind buffer; beyond it, Put calls drop
// records (counted in Stats.Dropped) rather than block the probe hot
// path or grow without bound. 64k records is ~2.5 MiB.
const maxPending = 1 << 16

// Stats is a point-in-time summary of the store, exposed through
// poolctl -store-stats, the daemon's /healthz, and server.* metrics.
type Stats struct {
	Packs            int `json:"packs"`
	QuarantinedPacks int `json:"quarantined_packs"`
	EvalRecords      int `json:"eval_records"`
	// PoolRecords is always zero: the store holds verdicts only. It is
	// kept for callers that still sum it into a record count.
	PoolRecords int   `json:"pool_records"`
	Bytes       int64 `json:"bytes"` // live pack bytes on disk
	Appends     int64 `json:"appends"`
	Superseded  int64 `json:"superseded"` // index upserts that lost to an equal-or-higher level
	Dropped     int64 `json:"dropped"`    // records dropped by a full write-behind buffer
	Compactions int64 `json:"compactions"`
}

// Store is safe for concurrent use by any number of goroutines.
type Store struct {
	opts Options

	// mu guards the in-memory state: the index, pending buffer, and the
	// in-memory counters. Reads on the probe hot path take RLock.
	mu sync.RWMutex
	// evals is the index: suite fingerprint → program hash → record, so
	// a warm start reads only its own suite's records.
	evals   map[uint64]map[uint64]EvalRecord
	pending []record
	stats   Stats
	closed  bool

	// wmu serializes every disk mutation (pack appends, rolls,
	// compaction, audit rewrites). Always acquired without mu held, or
	// after releasing mu — never inside it.
	wmu        sync.Mutex
	packSeq    uint64 // active pack sequence number
	packFile   *os.File
	packOff    int64 // current size of the active pack
	quarantine int   // packs quarantined at open / by audit

	// flusher lifecycle.
	wake chan struct{}
	done chan struct{}
	stop chan struct{}
}

// Open opens (creating if necessary) the store in opts.Dir and rebuilds
// the in-memory index by scanning every pack (see recover). Corruption
// found during the scan is recovered, not fatal.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	opts.defaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts: opts,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		stop: make(chan struct{}),
	}
	if _, err := s.recover(); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// legacySnapshotName is the index snapshot that older stores kept beside
// their packs. The packs alone rebuild the same index, so recovery
// removes it unread.
const legacySnapshotName = "index.snap"

// recover resets the index, rebuilds it from every live pack in sequence
// order and opens the newest pack for appending. It runs before the store
// is shared, or with wmu held and no active pack. A bad record in the
// newest pack is the expected crash artifact, a torn append: its valid
// prefix is kept and the rest truncated away. An older pack with any bad
// record, or any pack with a bad header, is quarantined whole and none of
// its records reach the index: a record boundary after corruption cannot
// be trusted, so the store fails closed. Open discards the report; Audit
// returns it.
func (s *Store) recover() (AuditReport, error) {
	var rep AuditReport
	if err := os.Remove(filepath.Join(s.opts.Dir, legacySnapshotName)); err != nil && !os.IsNotExist(err) {
		return rep, err
	}
	seqs, err := listPacks(s.opts.Dir)
	if err != nil {
		return rep, err
	}
	s.mu.Lock()
	s.evals = make(map[uint64]map[uint64]EvalRecord)
	s.mu.Unlock()
	s.packSeq = 1
	for i, seq := range seqs {
		path := filepath.Join(s.opts.Dir, packName(seq))
		newest := i == len(seqs)-1
		res := scanPack(path)
		rep.PacksScanned++
		if res.err != nil && newest && res.goodOff > 0 {
			if err := os.Truncate(path, res.goodOff); err != nil {
				return rep, fmt.Errorf("store: truncating torn pack: %w", err)
			}
			rep.TailTruncated = true
		} else if res.err != nil {
			if err := quarantine(path); err != nil {
				return rep, err
			}
			s.quarantine++
			rep.Quarantined = append(rep.Quarantined, packName(seq))
			if newest {
				s.packSeq = seq + 1
			}
			continue
		}
		// Legacy pool records (KindPool) are valid but not indexed.
		s.mu.Lock()
		for _, rec := range res.recs {
			if rec.kind == KindEval {
				s.applyEval(recordToEval(rec))
			}
		}
		s.mu.Unlock()
		rep.RecordsVerified += len(res.recs)
		if newest {
			s.packSeq = seq
		}
	}
	f, off, err := openPackForAppend(filepath.Join(s.opts.Dir, packName(s.packSeq)))
	if err != nil {
		return rep, err
	}
	s.packFile = f
	s.packOff = off
	return rep, nil
}

// openPackForAppend opens (creating + writing the header if new) a pack
// for appending, returning the file and its current size.
func openPackForAppend(path string) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	off := fi.Size()
	if off == 0 {
		if _, err := f.Write([]byte(packMagic)); err != nil {
			f.Close()
			return nil, 0, err
		}
		off = int64(len(packMagic))
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, off, nil
}

// applyEval upserts an eval record into the index (mu held): the highest
// knowledge level wins; on a tie the existing record stands (records are
// pure functions of their key, so equal-level records are
// interchangeable).
func (s *Store) applyEval(e EvalRecord) bool {
	bySuite := s.evals[e.Suite]
	if old, ok := bySuite[e.Prog]; ok && old.Level >= e.Level {
		s.stats.Superseded++
		return false
	}
	if bySuite == nil {
		bySuite = make(map[uint64]EvalRecord)
		s.evals[e.Suite] = bySuite
	}
	bySuite[e.Prog] = e
	return true
}

// PutEval records an evaluation verdict. Returns true if the index
// advanced (new key or higher knowledge level); false upserts are not
// persisted. Never blocks on disk: the append lands in the write-behind
// buffer and is flushed in batches off the probe hot path.
func (s *Store) PutEval(e EvalRecord) bool {
	if e.Level == LevelNone {
		return false
	}
	s.mu.Lock()
	if s.closed || !s.applyEval(e) {
		s.mu.Unlock()
		return false
	}
	advanced := s.enqueue(evalToRecord(e))
	s.mu.Unlock()
	s.maybeWake(advanced)
	return true
}

// GetEval returns the stored verdict for (prog, suite), if any.
func (s *Store) GetEval(prog, suite uint64) (EvalRecord, bool) {
	s.mu.RLock()
	e, ok := s.evals[suite][prog]
	s.mu.RUnlock()
	return e, ok
}

// Evals returns a copy of every eval record with the given suite
// fingerprint, in unspecified order, or nil if there are none. The filter
// is what keeps a warm start honest: records from other suites never
// leak into a cache.
func (s *Store) Evals(suite uint64) []EvalRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bySuite := s.evals[suite]
	if len(bySuite) == 0 {
		return nil
	}
	out := make([]EvalRecord, 0, len(bySuite))
	for _, e := range bySuite {
		out = append(out, e)
	}
	return out
}

// enqueue adds a record to the pending buffer (mu held by caller) and
// reports whether the buffer crossed the flush threshold.
func (s *Store) enqueue(rec record) bool {
	if len(s.pending) >= maxPending {
		s.stats.Dropped++
		return false
	}
	s.pending = append(s.pending, rec)
	return len(s.pending) >= s.opts.FlushEvery
}

// maybeWake nudges the flusher without blocking.
func (s *Store) maybeWake(full bool) {
	if !full {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// flusher is the background write-behind goroutine: it drains the
// pending buffer on batch-full wakeups and on a timer, so records reach
// disk within FlushInterval even when traffic stops.
func (s *Store) flusher() {
	defer close(s.done)
	var tick <-chan time.Time
	var ticker *time.Ticker
	if s.opts.FlushInterval > 0 {
		ticker = time.NewTicker(s.opts.FlushInterval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-tick:
		}
		s.Flush() //nolint:errcheck — flush errors surface via Stats and Close
	}
}

// Flush synchronously drains the write-behind buffer to the active pack,
// rolling it at MaxPackBytes. Safe to call concurrently.
func (s *Store) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.flushLocked()
}

// flushLocked is Flush with wmu already held.
func (s *Store) flushLocked() error {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	buf := make([]byte, 0, len(batch)*recordSize)
	for _, rec := range batch {
		buf = rec.encode(buf)
	}
	if s.packFile == nil {
		return errClosed
	}
	if _, err := s.packFile.Write(buf); err != nil {
		return err
	}
	s.packOff += int64(len(buf))
	s.mu.Lock()
	s.stats.Appends += int64(len(batch))
	s.mu.Unlock()
	if s.packOff >= s.opts.MaxPackBytes {
		return s.rollPack()
	}
	return nil
}

// rollPack closes the active pack (fsyncing it — a full pack is final)
// and starts the next one. wmu held.
func (s *Store) rollPack() error {
	if err := s.packFile.Sync(); err != nil {
		return err
	}
	if err := s.packFile.Close(); err != nil {
		return err
	}
	s.packSeq++
	f, off, err := openPackForAppend(filepath.Join(s.opts.Dir, packName(s.packSeq)))
	if err != nil {
		s.packFile = nil
		return err
	}
	s.packFile = f
	s.packOff = off
	return nil
}

// Stats returns a point-in-time summary. It counts live pack files and
// bytes from the in-memory write state, not a directory walk.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	for _, bySuite := range s.evals {
		st.EvalRecords += len(bySuite)
	}
	s.mu.RUnlock()
	s.wmu.Lock()
	seqs, _ := listPacks(s.opts.Dir)
	st.Packs = len(seqs)
	st.QuarantinedPacks = s.quarantine
	var bytes int64
	for _, seq := range seqs {
		if fi, err := os.Stat(filepath.Join(s.opts.Dir, packName(seq))); err == nil {
			bytes += fi.Size()
		}
	}
	st.Bytes = bytes
	s.wmu.Unlock()
	return st
}

// Close stops the flusher, drains the buffer, and syncs and closes the
// active pack. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.flushLocked()
	if s.packFile != nil {
		if serr := s.packFile.Sync(); err == nil {
			err = serr
		}
		if cerr := s.packFile.Close(); err == nil {
			err = cerr
		}
		s.packFile = nil
	}
	return err
}
