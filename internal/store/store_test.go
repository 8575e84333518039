package store

import (
	"sync"
	"testing"
	"time"
)

// openT opens a store in dir with small, deterministic thresholds and no
// background timer flushes (tests drive flushing explicitly).
func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetEvalRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	e := EvalRecord{Prog: 11, Suite: 22, Level: LevelFitness, Safe: true, Repair: false,
		PosPassed: 3, NegPassed: 1, PosTotal: 4, NegTotal: 2}
	if !s.PutEval(e) {
		t.Fatal("PutEval: first insert returned false")
	}
	got, ok := s.GetEval(11, 22)
	if !ok || got != e {
		t.Fatalf("GetEval = %+v, %v; want %+v, true", got, ok, e)
	}
	if _, ok := s.GetEval(11, 99); ok {
		t.Fatal("GetEval with wrong suite fingerprint found a record")
	}
}

func TestKnowledgeLevelUpsert(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if !s.PutEval(EvalRecord{Prog: 1, Suite: 2, Level: LevelOutcome, Safe: true}) {
		t.Fatal("insert at LevelOutcome failed")
	}
	// Lower level loses.
	if s.PutEval(EvalRecord{Prog: 1, Suite: 2, Level: LevelSafe, Safe: true}) {
		t.Fatal("lower-level upsert advanced the index")
	}
	// Equal level loses (records are interchangeable).
	if s.PutEval(EvalRecord{Prog: 1, Suite: 2, Level: LevelOutcome, Safe: true}) {
		t.Fatal("equal-level upsert advanced the index")
	}
	// Higher level wins.
	full := EvalRecord{Prog: 1, Suite: 2, Level: LevelFitness, Safe: true,
		PosPassed: 5, PosTotal: 5, NegTotal: 1}
	if !s.PutEval(full) {
		t.Fatal("higher-level upsert did not advance the index")
	}
	if got, _ := s.GetEval(1, 2); got != full {
		t.Fatalf("GetEval = %+v, want %+v", got, full)
	}
	if st := s.Stats(); st.Superseded != 2 {
		t.Fatalf("Superseded = %d, want 2", st.Superseded)
	}
}

func TestReopenRebuildsIndexFromPacks(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	want := make([]EvalRecord, 50)
	for i := range want {
		want[i] = EvalRecord{Prog: uint64(i), Suite: 7, Level: LevelSafe, Safe: i%2 == 0}
		s.PutEval(want[i])
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	for _, e := range want {
		got, ok := s2.GetEval(e.Prog, e.Suite)
		if !ok || got != e {
			t.Fatalf("after reopen, GetEval(%d) = %+v, %v; want %+v", e.Prog, got, ok, e)
		}
	}
}

func TestEvalsFiltersBySuiteFingerprint(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 111, Level: LevelSafe, Safe: true})
	}
	for i := 0; i < 4; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 222, Level: LevelSafe})
	}
	if got := len(s.Evals(111)); got != 10 {
		t.Fatalf("Evals(111) = %d records, want 10", got)
	}
	if got := len(s.Evals(222)); got != 4 {
		t.Fatalf("Evals(222) = %d records, want 4", got)
	}
	if got := s.Evals(333); got != nil {
		t.Fatalf("Evals(stale fingerprint) = %d records, want none", len(got))
	}
}

func TestPackRollAtMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FlushInterval: -1,
		MaxPackBytes: int64(len(packMagic)) + 10*recordSize, FlushEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 35; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe})
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	seqs, err := listPacks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected >=3 packs after roll, got %d", len(seqs))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.EvalRecords != 35 {
		t.Fatalf("after reopen across %d packs: %d records, want 35", len(seqs), st.EvalRecords)
	}
}

func TestCompactDropsSupersededRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	// Each key appended at three successive knowledge levels: two dead
	// records per key on disk.
	for i := 0; i < 30; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe, Safe: true})
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelOutcome, Safe: true})
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelFitness, Safe: true, PosPassed: 1, PosTotal: 1})
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := s.Stats()
	n, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n != 30 {
		t.Fatalf("Compact wrote %d records, want 30 live", n)
	}
	after := s.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("Compact did not shrink the store: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.Packs != 1 {
		t.Fatalf("Compact left %d packs, want 1", after.Packs)
	}
	// Full knowledge survives, writes still work, and a reopen agrees.
	if got, _ := s.GetEval(7, 1); got.Level != LevelFitness {
		t.Fatalf("post-compact GetEval level = %d, want %d", got.Level, LevelFitness)
	}
	s.PutEval(EvalRecord{Prog: 500, Suite: 1, Level: LevelSafe, Safe: true})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.EvalRecords != 31 {
		t.Fatalf("post-compact reopen: %d records, want 31", st.EvalRecords)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), FlushInterval: time.Millisecond, FlushEvery: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				prog := uint64(i % 64)
				s.PutEval(EvalRecord{Prog: prog, Suite: 9, Level: uint8(1 + (i+w)%3), Safe: true})
				s.GetEval(prog, 9)
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.EvalRecords != 64 {
		t.Fatalf("concurrent writes produced %d eval keys, want 64", st.EvalRecords)
	}
	// Every surviving record must be at the highest level written for it.
	for prog := uint64(0); prog < 64; prog++ {
		if e, ok := s.GetEval(prog, 9); !ok || e.Level < LevelSafe || e.Level > LevelFitness {
			t.Fatalf("prog %d: %+v, %v", prog, e, ok)
		}
	}
}

func TestDroppedRecordsWhenBufferFull(t *testing.T) {
	// No flusher, no explicit flush: the pending buffer fills and further
	// puts drop their persistence (the index still advances).
	s, err := Open(Options{Dir: t.TempDir(), FlushInterval: -1, FlushEvery: 1 << 30})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < maxPending+10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe})
	}
	st := s.Stats()
	if st.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", st.Dropped)
	}
	if st.EvalRecords != maxPending+10 {
		t.Fatalf("index did not advance past the drop: %d", st.EvalRecords)
	}
}

func TestStatsCountsAppends(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Appends != 5 || st.EvalRecords != 5 || st.Packs != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}
