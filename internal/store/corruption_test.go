package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeAndClose populates a store with n eval records under suite and
// returns the single pack path.
func writeAndClose(t *testing.T, dir string, n int, suite uint64) string {
	t.Helper()
	s := openT(t, dir)
	for i := 0; i < n; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: suite, Level: LevelFitness, Safe: true,
			PosPassed: uint32(i), PosTotal: uint32(n)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Drop the snapshot so reopen exercises the pack scan under test.
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("removing snapshot: %v", err)
	}
	return filepath.Join(dir, packName(1))
}

func TestRecoverTruncatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	pack := writeAndClose(t, dir, 20, 1)
	// Tear the final append: cut the pack mid-record.
	fi, err := os.Stat(pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(pack, fi.Size()-(recordSize/2)); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.EvalRecords != 19 {
		t.Fatalf("recovered %d records, want 19 (last torn away)", st.EvalRecords)
	}
	if st.QuarantinedPacks != 0 {
		t.Fatalf("torn tail must truncate, not quarantine: %d quarantined", st.QuarantinedPacks)
	}
	if _, ok := s.GetEval(19, 1); ok {
		t.Fatal("the torn record survived recovery")
	}
	if _, ok := s.GetEval(18, 1); !ok {
		t.Fatal("an intact record was lost")
	}
	// The file itself must have been truncated to the last good record.
	fi, err = os.Stat(pack)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(packMagic)) + 19*recordSize; fi.Size() != want {
		t.Fatalf("pack size after recovery = %d, want %d", fi.Size(), want)
	}
	// And appends must continue cleanly past the cut.
	s.PutEval(EvalRecord{Prog: 999, Suite: 1, Level: LevelSafe, Safe: true})
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
}

func TestQuarantineBitFlippedPack(t *testing.T) {
	dir := t.TempDir()
	// Two packs: corrupt the older one mid-file. Whole-pack quarantine,
	// not tail truncation, because a bad record poisons every boundary
	// after it.
	s, err := Open(Options{Dir: dir, FlushInterval: -1, SnapshotEvery: -1,
		MaxPackBytes: int64(len(packMagic)) + 10*recordSize, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe, Safe: true})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the middle of pack 1.
	pack1 := filepath.Join(dir, packName(1))
	buf, err := os.ReadFile(pack1)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(packMagic)+3*recordSize+5] ^= 0x40
	if err := os.WriteFile(pack1, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.QuarantinedPacks != 1 {
		t.Fatalf("QuarantinedPacks = %d, want 1", st.QuarantinedPacks)
	}
	// Pack 1 held progs 0..9; every one of them must be gone — the store
	// fails closed rather than serving records near corruption.
	for i := 0; i < 10; i++ {
		if _, ok := s2.GetEval(uint64(i), 1); ok {
			t.Fatalf("record %d from the corrupt pack survived", i)
		}
	}
	// Records in clean packs survive.
	for i := 10; i < 25; i++ {
		if _, ok := s2.GetEval(uint64(i), 1); !ok {
			t.Fatalf("record %d from a clean pack was lost", i)
		}
	}
	// The corrupt pack is renamed aside, not deleted.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined bool
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), quarantineSuffix) {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("no .quarantine file left for the operator")
	}
}

func TestDuplicateRecordsAcrossPacksHighestLevelWins(t *testing.T) {
	dir := t.TempDir()
	// Pack 1: LevelSafe for prog 42. Pack 2: LevelFitness for prog 42.
	// Also the reverse order for prog 43, to prove it's level, not
	// recency, that wins.
	s, err := Open(Options{Dir: dir, FlushInterval: -1, SnapshotEvery: -1,
		MaxPackBytes: int64(len(packMagic)) + 2*recordSize, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	put := func(prog uint64, level uint8) {
		// Bypass the index guard by writing through a fresh record each
		// time; PutEval would refuse the level downgrade for prog 43, so
		// enqueue raw records instead to simulate two independent
		// producers' packs.
		s.mu.Lock()
		s.pending = append(s.pending, evalToRecord(EvalRecord{
			Prog: prog, Suite: 1, Level: level, Safe: true, PosPassed: uint32(level)}))
		s.mu.Unlock()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put(42, LevelSafe)
	put(42, LevelFitness)
	put(43, LevelFitness)
	put(43, LevelSafe)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listPacks(dir)
	if len(seqs) < 2 {
		t.Fatalf("need duplicates spread across >=2 packs, got %d", len(seqs))
	}

	s2 := openT(t, dir)
	defer s2.Close()
	for _, prog := range []uint64{42, 43} {
		e, ok := s2.GetEval(prog, 1)
		if !ok {
			t.Fatalf("prog %d lost", prog)
		}
		if e.Level != LevelFitness {
			t.Fatalf("prog %d resolved to level %d, want highest (%d)", prog, e.Level, LevelFitness)
		}
	}
}

func TestAuditQuarantinesAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FlushInterval: -1, SnapshotEvery: -1,
		MaxPackBytes: int64(len(packMagic)) + 10*recordSize, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 25; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe, Safe: true})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Clean audit first: everything verifies, nothing quarantined.
	rep, err := s.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if len(rep.Quarantined) != 0 || rep.RecordsVerified != 25 {
		t.Fatalf("clean audit = %+v", rep)
	}

	// Corrupt pack 2 behind the live store's back, then audit again.
	pack2 := filepath.Join(dir, packName(2))
	buf, err := os.ReadFile(pack2)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(packMagic)+recordSize+7] ^= 0x01
	if err := os.WriteFile(pack2, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Audit()
	if err != nil {
		t.Fatalf("Audit after corruption: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != packName(2) {
		t.Fatalf("Quarantined = %v, want [%s]", rep.Quarantined, packName(2))
	}
	// The live index must have dropped pack 2's records (progs 10..19)
	// and kept the rest.
	for i := 10; i < 20; i++ {
		if _, ok := s.GetEval(uint64(i), 1); ok {
			t.Fatalf("record %d from the quarantined pack still served", i)
		}
	}
	for _, i := range []int{0, 9, 20, 24} {
		if _, ok := s.GetEval(uint64(i), 1); !ok {
			t.Fatalf("record %d from a clean pack was lost by audit", i)
		}
	}
	// The store keeps working after an audit.
	s.PutEval(EvalRecord{Prog: 1000, Suite: 1, Level: LevelSafe, Safe: true})
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after audit: %v", err)
	}
	if _, ok := s.GetEval(1000, 1); !ok {
		t.Fatal("post-audit write lost")
	}
}

func TestCorruptSnapshotFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelOutcome, Safe: true})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the snapshot: it must be ignored wholesale and
	// the packs rescanned.
	snapPath := filepath.Join(dir, snapshotName)
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(snapPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.EvalRecords != 10 {
		t.Fatalf("fallback scan recovered %d records, want 10", st.EvalRecords)
	}
}

func TestForeignFileInStoreDirIgnored(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 5, 1)
	// Not a pack, wrong magic: must be skipped, not quarantined or fatal.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	defer s.Close()
	if st := s.Stats(); st.EvalRecords != 5 || st.QuarantinedPacks != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestTruncatedPackBehindSnapshotFallsBackToScan: a pack cut below the
// offset the snapshot vouches for no longer backs the snapshot, so Open
// recovers from the packs alone, and a second Open agrees with the first.
func TestTruncatedPackBehindSnapshotFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelOutcome, Safe: true})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the pack mid-record 8, behind the snapshot's offset.
	if err := os.Truncate(filepath.Join(dir, packName(1)), int64(len(packMagic))+7*recordSize+recordSize/2); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		s := openT(t, dir)
		st := s.Stats()
		_, served := s.GetEval(9, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st.EvalRecords != 7 || served {
			t.Fatalf("open %d: %d records (record 9 served: %v), want the 7 the pack still holds", round, st.EvalRecords, served)
		}
	}
}
