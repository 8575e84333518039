// Package store is the disk-backed, crash-safe evaluation store: the
// persistence layer under the fitness cache. Evaluation verdicts are
// appended to pack files (pack.go) through a write-behind buffer,
// indexed in memory by (program hash, suite fingerprint), snapshotted
// periodically (snapshot.go), compacted to drop superseded records
// (compact.go), and audited for corruption (audit.go).
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
	"sort"
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

// evalKey indexes eval records.
type evalKey struct {
	prog  uint64
	suite uint64
}

// Options configures Open. The zero value of every field selects a
// sensible default.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// MaxPackBytes rolls the active pack when it exceeds this size.
	// Default 4 MiB (~100k records per pack).
	MaxPackBytes int64
	// SnapshotEvery writes an index snapshot after this many appended
	// records. Default 4096. Negative disables periodic snapshots.
	SnapshotEvery int
	// FlushEvery flushes the write-behind buffer when it holds this many
	// pending records. Default 64.
	FlushEvery int
	// FlushInterval flushes the buffer at least this often regardless of
	// batch size. Default 100ms. Negative disables the timer (flushes
	// then happen only on batch-full, Flush, Snapshot and Close).
	FlushInterval time.Duration
}

func (o *Options) defaults() {
	if o.MaxPackBytes == 0 {
		o.MaxPackBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
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
	Snapshots   int64 `json:"snapshots"`
	Compactions int64 `json:"compactions"`
}

// Store is safe for concurrent use by any number of goroutines.
type Store struct {
	opts Options

	// mu guards the in-memory state: index maps, pending buffer, and the
	// in-memory counters. Reads on the probe hot path take RLock.
	mu      sync.RWMutex
	evals   map[evalKey]EvalRecord
	pending []record
	stats   Stats
	closed  bool

	// wmu serializes every disk mutation (pack appends, rolls, snapshot,
	// compaction, audit rewrites). Always acquired without mu held, or
	// after releasing mu — never inside it.
	wmu        sync.Mutex
	packSeq    uint64 // active pack sequence number
	packFile   *os.File
	packOff    int64 // current size of the active pack
	sinceSnap  int   // records appended since the last snapshot
	quarantine int   // packs quarantined at open / by audit

	// flusher lifecycle.
	wake chan struct{}
	done chan struct{}
	stop chan struct{}
}

// Open opens (creating if necessary) the store in opts.Dir, rebuilding
// the in-memory index from the latest valid snapshot plus a scan of any
// newer pack records. Corruption found during the scan is recovered, not
// fatal: a torn tail on the newest pack is truncated away, and corrupt
// older packs are quarantined wholesale (their records drop out of the
// index — the store fails closed, never serving bytes it cannot verify).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	opts.defaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:  opts,
		evals: make(map[evalKey]EvalRecord),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// recover rebuilds the index: snapshot first (if valid), then every live
// pack from where the snapshot left off.
func (s *Store) recover() error {
	snap, snapOK := loadSnapshot(filepath.Join(s.opts.Dir, snapshotName))
	if snapOK {
		// The snapshot vouches for its pack up to appliedOff. A pack that
		// is gone or shorter no longer backs it: scan everything instead
		// of serving records the packs have lost.
		fi, err := os.Stat(filepath.Join(s.opts.Dir, packName(snap.appliedSeq)))
		snapOK = err == nil && fi.Size() >= snap.appliedOff
	}
	if snapOK {
		for _, e := range snap.evals {
			s.evals[evalKey{e.Prog, e.Suite}] = e
		}
	}
	seqs, err := listPacks(s.opts.Dir)
	if err != nil {
		return err
	}
	for i, seq := range seqs {
		path := filepath.Join(s.opts.Dir, packName(seq))
		from := int64(0)
		if snapOK && seq < snap.appliedSeq {
			continue // fully covered by the snapshot
		}
		if snapOK && seq == snap.appliedSeq {
			from = snap.appliedOff
		}
		res := scanPack(path, from)
		if res.err != nil {
			if i == len(seqs)-1 {
				// Newest pack: a bad tail is the expected crash artifact.
				// Keep the valid prefix and truncate the rest away.
				if res.goodOff > 0 {
					if terr := os.Truncate(path, res.goodOff); terr != nil {
						return fmt.Errorf("store: truncating torn pack: %w", terr)
					}
				} else {
					// Even the header is bad — quarantine and start fresh.
					if qerr := quarantine(path); qerr != nil {
						return qerr
					}
					s.quarantine++
					continue
				}
			} else {
				// Corruption mid-history: the pack cannot be trusted at
				// all (nor can records we already applied from it — but a
				// bad record stops the scan before any are applied, since
				// scanPack returns the valid prefix and we apply below
				// only on success... so discard the prefix too).
				if qerr := quarantine(path); qerr != nil {
					return qerr
				}
				s.quarantine++
				continue
			}
		}
		for _, rec := range res.recs {
			s.applyRecord(rec)
		}
		if i == len(seqs)-1 {
			s.packSeq = seq
			s.packOff = res.goodOff
		}
	}
	if s.packSeq == 0 {
		s.packSeq = 1
		if len(seqs) > 0 {
			s.packSeq = seqs[len(seqs)-1] + 1
		}
	}
	path := filepath.Join(s.opts.Dir, packName(s.packSeq))
	f, off, err := openPackForAppend(path)
	if err != nil {
		return err
	}
	s.packFile = f
	s.packOff = off
	return nil
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

// applyRecord folds one decoded record into the index (recovery path;
// caller holds no locks — only runs before the store is shared). Legacy
// pool records (KindPool) are skipped.
func (s *Store) applyRecord(rec record) {
	if rec.kind == KindEval {
		s.applyEval(recordToEval(rec))
	}
}

// applyEval upserts an eval record: the highest knowledge level wins;
// on a tie the existing record stands (records are pure functions of
// their key, so equal-level records are interchangeable).
func (s *Store) applyEval(e EvalRecord) bool {
	k := evalKey{e.Prog, e.Suite}
	if old, ok := s.evals[k]; ok && old.Level >= e.Level {
		s.stats.Superseded++
		return false
	}
	s.evals[k] = e
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
	e, ok := s.evals[evalKey{prog, suite}]
	s.mu.RUnlock()
	return e, ok
}

// Evals returns a copy of every eval record with the given suite
// fingerprint, in unspecified order. The filter is what keeps a warm
// start honest: records from other suites never leak into a cache.
func (s *Store) Evals(suite uint64) []EvalRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []EvalRecord
	for k, e := range s.evals {
		if k.suite == suite {
			out = append(out, e)
		}
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
// rolling it at MaxPackBytes and snapshotting every SnapshotEvery
// records. Safe to call concurrently.
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
	s.sinceSnap += len(batch)
	s.mu.Lock()
	s.stats.Appends += int64(len(batch))
	s.mu.Unlock()
	if s.packOff >= s.opts.MaxPackBytes {
		if err := s.rollPack(); err != nil {
			return err
		}
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		return s.snapshotLocked()
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

// Snapshot flushes pending records and writes an index snapshot, so the
// next Open skips re-scanning everything before this point.
func (s *Store) Snapshot() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the snapshot file; wmu held, pending empty (or
// its tail simply not covered — the snapshot records exactly how far
// into the pack history it is valid).
func (s *Store) snapshotLocked() error {
	if s.packFile == nil {
		return errClosed
	}
	// Sync the pack first: the snapshot claims everything up to
	// (packSeq, packOff) is durable, so make it so.
	if err := s.packFile.Sync(); err != nil {
		return err
	}
	s.mu.RLock()
	snap := snapshot{appliedSeq: s.packSeq, appliedOff: s.packOff}
	snap.evals = make([]EvalRecord, 0, len(s.evals))
	for _, e := range s.evals {
		snap.evals = append(snap.evals, e)
	}
	s.mu.RUnlock()
	sort.Slice(snap.evals, func(i, j int) bool {
		a, b := snap.evals[i], snap.evals[j]
		if a.Prog != b.Prog {
			return a.Prog < b.Prog
		}
		return a.Suite < b.Suite
	})
	if err := writeSnapshot(filepath.Join(s.opts.Dir, snapshotName), snap); err != nil {
		return err
	}
	s.sinceSnap = 0
	s.mu.Lock()
	s.stats.Snapshots++
	s.mu.Unlock()
	return nil
}

// Stats returns a point-in-time summary. It counts live pack files and
// bytes from the in-memory write state, not a directory walk.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	st.EvalRecords = len(s.evals)
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

// Close stops the flusher, drains the buffer, snapshots, and closes the
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
	if err == nil {
		err = s.snapshotLocked()
	}
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
