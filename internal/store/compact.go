// Compaction: rewrite the live index into a fresh pack and delete the
// packs it supersedes. Appends accumulate superseded records (every
// knowledge-level upgrade re-appends its key), so over time packs hold
// mostly dead bytes; compaction reclaims them while preserving exactly
// the records the index would rebuild.
//
// Crash-safety ordering: write + fsync the new pack, fsync the directory
// so its name is durable, then delete old packs. A crash between any two
// steps leaves a store that re-opens to the same index — at worst with
// duplicate records across old and new packs, which the index upsert
// (highest level wins) absorbs. Legacy pool records, never in the index,
// are not rewritten: compaction purges them.
package store

import (
	"os"
	"path/filepath"
)

// Compact rewrites all live records into a new pack generation and
// removes the old packs. Returns the number of records written.
func (s *Store) Compact() (int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.flushLocked(); err != nil {
		return 0, err
	}
	if s.packFile == nil {
		return 0, errClosed
	}

	// Encode the live index under mu; everything written from here on is
	// exactly this state (concurrent Puts land in pending and flush into
	// the new active pack afterwards — wmu is held, so no flush can
	// interleave).
	var buf []byte
	s.mu.RLock()
	for _, bySuite := range s.evals {
		for _, e := range bySuite {
			buf = evalToRecord(e).encode(buf)
		}
	}
	s.mu.RUnlock()
	n := len(buf) / recordSize

	oldSeqs, err := listPacks(s.opts.Dir)
	if err != nil {
		return 0, err
	}

	// Close the current active pack; the compacted pack replaces it.
	if err := s.packFile.Sync(); err != nil {
		return 0, err
	}
	if err := s.packFile.Close(); err != nil {
		return 0, err
	}
	s.packFile = nil

	newSeq := s.packSeq + 1
	path := filepath.Join(s.opts.Dir, packName(newSeq))
	f, off, err := openPackForAppend(path)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	s.packFile = f
	s.packSeq = newSeq
	s.packOff = off + int64(len(buf))

	// The new pack's directory entry must be durable before any old pack
	// is removed, or a crash could leave neither.
	if err := syncDir(s.opts.Dir); err != nil {
		return n, err
	}

	// Old packs are now fully redundant; delete them.
	for _, seq := range oldSeqs {
		if seq == newSeq {
			continue
		}
		if err := os.Remove(filepath.Join(s.opts.Dir, packName(seq))); err != nil && !os.IsNotExist(err) {
			return n, err
		}
	}
	s.mu.Lock()
	s.stats.Compactions++
	s.mu.Unlock()
	return n, nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
