// The auditor: Open's recovery, re-run on a live store. It re-reads every
// pack, verifies every record checksum, quarantines packs that fail
// (rename to *.quarantine — never delete, an operator may want the
// bytes) and rebuilds the in-memory index from the survivors. The store
// fails closed: a record that cannot be verified is never served, but
// corruption never takes the store down.
package store

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
	if err := s.flushLocked(); err != nil {
		return AuditReport{}, err
	}
	if s.packFile == nil {
		return AuditReport{}, errClosed
	}
	// Recovery scans, truncates and quarantines quiesced files, then
	// reopens the newest pack.
	if err := s.packFile.Sync(); err != nil {
		return AuditReport{}, err
	}
	if err := s.packFile.Close(); err != nil {
		return AuditReport{}, err
	}
	s.packFile = nil
	return s.recover()
}
