// The auditor: an integrity pass over every pack on disk. It re-reads
// each file, verifies every record checksum, quarantines packs that
// fail (rename to *.quarantine — never delete, an operator may want the
// bytes), rebuilds the in-memory index from the survivors, and writes a
// fresh snapshot. The store fails closed: a record that cannot be
// verified is never served, but corruption never takes the store down.
package store

import (
	"os"
	"path/filepath"
)

// AuditReport summarizes one Audit pass.
type AuditReport struct {
	PacksScanned    int      `json:"packs_scanned"`
	RecordsVerified int      `json:"records_verified"`
	Quarantined     []string `json:"quarantined,omitempty"` // pack filenames pulled from service
	TailTruncated   bool     `json:"tail_truncated"`        // newest pack had a torn tail
}

// Audit verifies every checksum in every live pack. Corrupt packs are
// quarantined and the index is rebuilt from the clean remainder, so a
// bad pack costs its records (they will be re-computed and re-persisted
// on demand) but never poisons a warm start.
func (s *Store) Audit() (AuditReport, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var rep AuditReport
	if err := s.flushLocked(); err != nil {
		return rep, err
	}
	if s.packFile == nil {
		return rep, errClosed
	}
	// Close the active pack for the duration; scanning and quarantining
	// happen on quiesced files. Reopened (or replaced) before returning.
	if err := s.packFile.Sync(); err != nil {
		return rep, err
	}
	if err := s.packFile.Close(); err != nil {
		return rep, err
	}
	s.packFile = nil

	seqs, err := listPacks(s.opts.Dir)
	if err != nil {
		return rep, err
	}
	type packScan struct {
		seq  uint64
		recs []record
	}
	var clean []packScan
	for i, seq := range seqs {
		path := filepath.Join(s.opts.Dir, packName(seq))
		res := scanPack(path, 0)
		rep.PacksScanned++
		if res.err != nil {
			if i == len(seqs)-1 && res.goodOff > int64(len(packMagic)) {
				// Torn tail on the newest pack: recoverable, keep prefix.
				if terr := os.Truncate(path, res.goodOff); terr != nil {
					return rep, terr
				}
				rep.TailTruncated = true
				clean = append(clean, packScan{seq, res.recs})
				rep.RecordsVerified += len(res.recs)
				continue
			}
			if qerr := quarantine(path); qerr != nil {
				return rep, qerr
			}
			s.quarantine++
			rep.Quarantined = append(rep.Quarantined, packName(seq))
			continue
		}
		clean = append(clean, packScan{seq, res.recs})
		rep.RecordsVerified += len(res.recs)
	}

	// Rebuild the index from verified records only.
	s.mu.Lock()
	s.evals = make(map[evalKey]EvalRecord, len(s.evals))
	for _, ps := range clean {
		for _, rec := range ps.recs {
			s.applyRecord(rec)
		}
	}
	s.mu.Unlock()

	// Reopen (or restart) the active pack and persist the verified index.
	if len(clean) > 0 {
		s.packSeq = clean[len(clean)-1].seq
	} else if len(seqs) > 0 {
		s.packSeq = seqs[len(seqs)-1] + 1
	} else {
		s.packSeq = 1
	}
	f, off, err := openPackForAppend(filepath.Join(s.opts.Dir, packName(s.packSeq)))
	if err != nil {
		return rep, err
	}
	s.packFile = f
	s.packOff = off
	return rep, s.snapshotLocked()
}
