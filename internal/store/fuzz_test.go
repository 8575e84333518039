package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the pack-record decoder. Any
// input is either rejected with an error or is a record whose re-encoding
// reproduces the same 40 bytes: the decoder accepts nothing it cannot
// round-trip.
func FuzzDecodeRecord(f *testing.F) {
	eval := evalToRecord(EvalRecord{Prog: 7, Suite: 9, Level: LevelFitness, Safe: true,
		PosPassed: 3, NegPassed: 1, PosTotal: 3, NegTotal: 1}).encode(nil)
	pool := legacyPoolRecord(1, 2, 3, 4, 5)
	f.Add(eval)
	f.Add(pool)
	f.Add(eval[:recordSize-1])
	flipped := bytes.Clone(pool)
	flipped[10] ^= 0x40
	f.Add(flipped)
	f.Add(make([]byte, recordSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		if got := rec.encode(nil); !bytes.Equal(got, b) {
			t.Fatalf("decodeRecord accepted %x but re-encodes to %x", b, got)
		}
	})
}

// overflowSnapshot is a checksummed snapshot holding 20 valid eval records
// whose nEvals field claims 20+2^61: (nEvals+nPools)*recordSize wraps to
// the true body size, so a decoder that multiplies before bounding the
// count walks off the end of the buffer.
func overflowSnapshot() []byte {
	snap := snapshot{appliedSeq: 1, appliedOff: int64(len(packMagic))}
	for i := 0; i < 20; i++ {
		snap.evals = append(snap.evals, EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelSafe, Safe: true})
	}
	buf := encodeSnapshot(snap)
	body := buf[:len(buf)-4]
	binary.LittleEndian.PutUint64(body[len(snapshotMagic)+16:], 20+1<<61)
	binary.LittleEndian.PutUint32(buf[len(body):], crc32.Checksum(body, castagnoli))
	return buf
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot decoder behind
// loadSnapshot. It must never panic, and any snapshot it accepts must
// survive writeSnapshot and a reload from disk unchanged.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(encodeSnapshot(snapshot{appliedSeq: 1, appliedOff: int64(len(packMagic))}))
	f.Add(legacySnapshot(3, int64(len(packMagic))+2*recordSize, []EvalRecord{
		{Prog: 1, Suite: 2, Level: LevelOutcome, Safe: true, Repair: true},
		{Prog: 5, Suite: 2, Level: LevelFitness, PosPassed: 1, PosTotal: 2, NegTotal: 1},
	}, legacyPoolRecord(1, 3, 2, 4, 0)))
	f.Add(overflowSnapshot())
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, ok := decodeSnapshot(b)
		if !ok {
			return
		}
		path := filepath.Join(t.TempDir(), snapshotName)
		if err := writeSnapshot(path, snap); err != nil {
			t.Fatalf("writeSnapshot: %v", err)
		}
		again, ok := loadSnapshot(path)
		if !ok {
			t.Fatal("a rewritten snapshot no longer loads")
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("reload changed the snapshot:\n got %+v\nwant %+v", again, snap)
		}
	})
}

// TestSnapshotCountOverflowFallsBackToScan: a snapshot whose record
// counts wrap the size check is rejected like any corrupt snapshot, so
// Open recovers every record from the packs instead of panicking.
func TestSnapshotCountOverflowFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelOutcome, Safe: true})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), overflowSnapshot(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.EvalRecords != 10 {
		t.Fatalf("fallback scan recovered %d records, want 10", st.EvalRecords)
	}
}

// TestSnapshotBadOffsetFallsBackToScan: a checksummed snapshot whose
// applied offset cannot be a record boundary of a pack (negative, inside
// the header, or between records) is rejected, so it cannot steer the
// pack scan into truncating valid records away.
func TestSnapshotBadOffsetFallsBackToScan(t *testing.T) {
	for _, off := range []int64{-recordSize, 0, int64(len(packMagic)) + recordSize/2} {
		dir := t.TempDir()
		s := openT(t, dir)
		for i := 0; i < 10; i++ {
			s.PutEval(EvalRecord{Prog: uint64(i), Suite: 1, Level: LevelOutcome, Safe: true})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snap := snapshot{appliedSeq: 1, appliedOff: off}
		if err := os.WriteFile(filepath.Join(dir, snapshotName), encodeSnapshot(snap), 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir)
		if st := s2.Stats(); st.EvalRecords != 10 {
			t.Errorf("appliedOff %d: recovered %d records, want 10", off, st.EvalRecords)
		}
		s2.Close()
	}
}

// FuzzRecoverPackDir checks that open-time recovery is idempotent. A
// store of three small packs and a snapshot is damaged by a fuzzed list
// of operations, then opened and closed twice. Neither round may panic or
// fail, and the second round must find nothing left to repair: every file
// stays byte-identical to what the first round left, and both rounds
// serve the same eval records.
//
// Each 4-byte group of ops is one operation [kind, target, offHi, offLo]
// on the target'th file of the sorted directory listing (off =
// offHi<<8|offLo): kind 0 truncates off mod (size+1) bytes from the end,
// 1 flips bit off%8 of byte off/8 mod size, 2 writes a stray file, and 3
// removes the file.
func FuzzRecoverPackDir(f *testing.F) {
	template := f.TempDir()
	s, err := Open(Options{Dir: template, FlushInterval: -1, SnapshotEvery: -1,
		MaxPackBytes: int64(len(packMagic)) + 4*recordSize, FlushEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.PutEval(EvalRecord{Prog: uint64(i), Suite: uint64(1 + i%2), Level: LevelFitness, Safe: true,
			PosPassed: uint32(i), PosTotal: 10})
		if err := s.Flush(); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	files := readDir(f, template)
	if len(files) != 4 { // three packs and the snapshot
		f.Fatalf("template holds %d files, want 4", len(files))
	}

	// The corruption shapes of corruption_test.go. Sorted listing:
	// 0 index.snap, 1-3 pack-00000001..3.
	op := func(kind, target byte, off int) []byte { return []byte{kind, target, byte(off >> 8), byte(off)} }
	dropSnap := op(3, 0, 0)
	f.Add(append(dropSnap, op(0, 2, recordSize/2)...))                      // torn tail on the newest pack
	f.Add(append(dropSnap, op(1, 2, 0)...))                                 // bad header on the newest pack
	f.Add(append(dropSnap, op(1, 0, 8*(len(packMagic)+recordSize+5)+6)...)) // mid-history flip in pack 1
	f.Add(op(1, 0, 8*40))                                                   // corrupt snapshot
	f.Add(append(op(2, 0, 5), op(2, 1, len(packMagic))...))                 // stray files
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+4 <= len(ops) && i < 4*8; i += 4 {
			applyDamage(t, dir, ops[i:i+4])
		}
		first := reopen(t, dir)
		after := readDir(t, dir)
		second := reopen(t, dir)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second recovery serves different evals:\n first %v\nsecond %v", first, second)
		}
		if again := readDir(t, dir); !reflect.DeepEqual(after, again) {
			t.Fatalf("second recovery changed the directory: %d files before, %d after", len(after), len(again))
		}
	})
}

// strayNames are the stray files FuzzRecoverPackDir writes: a foreign
// file, pack names before and after the live range, a quarantine name
// and a leftover snapshot temp file.
var strayNames = []string{"notes.txt", packName(0), packName(9), packName(2) + quarantineSuffix, ".snap-stray"}

// applyDamage applies one FuzzRecoverPackDir operation to dir.
func applyDamage(t *testing.T, dir string, op []byte) {
	var names []string
	for name := range readDir(t, dir) {
		names = append(names, name)
	}
	sort.Strings(names)
	off := int(op[2])<<8 | int(op[3])
	if op[0]%4 == 2 {
		// A stray file: a prefix of the pack header, then the op bytes.
		body := append([]byte(packMagic)[:off%(len(packMagic)+1)], op...)
		if err := os.WriteFile(filepath.Join(dir, strayNames[int(op[1])%len(strayNames)]), body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(names) == 0 {
		return
	}
	path := filepath.Join(dir, names[int(op[1])%len(names)])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch op[0] % 4 {
	case 0:
		b = b[:len(b)-off%(len(b)+1)]
	case 1:
		if len(b) == 0 {
			return
		}
		b[(off/8)%len(b)] ^= 1 << (off % 8)
	case 3:
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopen opens and closes the store in dir and returns its eval records
// for both suites the template writes, sorted.
func reopen(t *testing.T, dir string) [][]EvalRecord {
	s, err := Open(Options{Dir: dir, FlushInterval: -1, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out [][]EvalRecord
	for _, suite := range []uint64{1, 2} {
		evals := s.Evals(suite)
		sort.Slice(evals, func(i, j int) bool { return evals[i].Prog < evals[j].Prog })
		out = append(out, evals)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

// readDir returns every regular file in dir by name with its contents.
func readDir(tb testing.TB, dir string) map[string][]byte {
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}
