package store

import (
	"os"
	"path/filepath"
	"reflect"
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
	s, err := Open(Options{Dir: dir, FlushInterval: -1,
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
	s, err := Open(Options{Dir: dir, FlushInterval: -1,
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
	s, err := Open(Options{Dir: dir, FlushInterval: -1,
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

// TestTornTailReopenTwiceAgrees: Open truncates a torn tail once, so a
// second Open finds nothing left to repair and serves the same records.
func TestTornTailReopenTwiceAgrees(t *testing.T) {
	dir := t.TempDir()
	pack := writeAndClose(t, dir, 10, 1)
	// Cut the pack mid-record 8.
	if err := os.Truncate(pack, int64(len(packMagic))+7*recordSize+recordSize/2); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		s := openT(t, dir)
		st := s.Stats()
		_, served := s.GetEval(9, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st.EvalRecords != 7 || served || st.QuarantinedPacks != 0 {
			t.Fatalf("open %d: %+v (record 9 served: %v), want the 7 records the pack still holds", round, st, served)
		}
	}
}

// TestBadFirstRecordInNewestPackTruncatesToHeader: a newest pack whose
// header is good but whose first record is bad is a torn append, so Open
// and Audit alike cut it back to its header and keep appending to it;
// neither quarantines it.
func TestBadFirstRecordInNewestPackTruncatesToHeader(t *testing.T) {
	for _, audit := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, FlushInterval: -1,
			MaxPackBytes: int64(len(packMagic)) + 5*recordSize, FlushEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe, Safe: true})
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Pack 1 holds progs 0..4, pack 2 progs 5 and 6.
		pack2 := filepath.Join(dir, packName(2))
		buf, err := os.ReadFile(pack2)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(packMagic)+9] ^= 0x02
		if audit {
			if err := os.WriteFile(pack2, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := s.Audit()
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if !rep.TailTruncated || len(rep.Quarantined) != 0 || rep.RecordsVerified != 5 {
				t.Fatalf("Audit report %+v, want a truncated tail, nothing quarantined, 5 records verified", rep)
			}
		} else {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pack2, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			s = openT(t, dir)
		}
		st := s.Stats()
		_, served := s.GetEval(5, 1)
		if st.EvalRecords != 5 || st.QuarantinedPacks != 0 || served {
			t.Fatalf("audit=%v: %+v (prog 5 served: %v), want pack 1's 5 records and nothing quarantined", audit, st, served)
		}
		if fi, err := os.Stat(pack2); err != nil || fi.Size() != int64(len(packMagic)) {
			t.Fatalf("audit=%v: pack 2 after recovery: %v, %v; want its %d-byte header", audit, fi, err, len(packMagic))
		}
		s.PutEval(EvalRecord{Prog: 100, Suite: 1, Level: LevelSafe, Safe: true})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if seqs, _ := listPacks(dir); len(seqs) != 2 {
			t.Fatalf("audit=%v: packs %v after the append, want it in pack 2", audit, seqs)
		}
	}
}

// TestCompactCrashBeforeOldPacksRemovedReopensSameIndex: a crash after
// Compact wrote and synced the new pack but before it removed the old
// ones leaves every old pack beside the compacted one. Reopening that
// directory serves the same index as before the compaction.
func TestCompactCrashBeforeOldPacksRemovedReopensSameIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FlushInterval: -1,
		MaxPackBytes: int64(len(packMagic)) + 8*recordSize, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []uint8{LevelSafe, LevelOutcome, LevelFitness} {
		for i := 0; i < 10; i++ {
			s.PutEval(EvalRecord{Prog: uint64(i), Suite: uint64(1 + i%2), Level: level, Safe: true,
				PosPassed: uint32(level), PosTotal: 3})
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := evalsBySuite(s, 1, 2)
	old := readDir(t, dir)
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Put the removed packs back, as a crash before their removal would
	// have left them.
	for name, b := range old {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s = openT(t, dir)
	defer s.Close()
	if st := s.Stats(); st.QuarantinedPacks != 0 || st.Packs != len(old)+1 {
		t.Fatalf("Stats %+v, want %d packs and nothing quarantined", st, len(old)+1)
	}
	if got := evalsBySuite(s, 1, 2); !reflect.DeepEqual(got, before) {
		t.Fatalf("reopened index %v, want %v", got, before)
	}
}
