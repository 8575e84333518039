package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the pack-record decoder. Any
// input is either rejected with an error or is a record whose re-encoding
// reproduces the same 40 bytes: the decoder accepts nothing it cannot
// round-trip.
func FuzzDecodeRecord(f *testing.F) {
	eval := evalToRecord(EvalRecord{Prog: 7, Suite: 9, Level: LevelFitness, Safe: true,
		PosPassed: 3, NegPassed: 1, PosTotal: 3, NegTotal: 1}).encode(nil)
	pool := poolToRecord(PoolRecord{Prog: 1, Suite: 2, Op: 3, At: 4, From: 5}).encode(nil)
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
	f.Add(encodeSnapshot(snapshot{
		appliedSeq: 3, appliedOff: int64(len(packMagic)) + 2*recordSize,
		evals: []EvalRecord{
			{Prog: 1, Suite: 2, Level: LevelOutcome, Safe: true, Repair: true},
			{Prog: 5, Suite: 2, Level: LevelFitness, PosPassed: 1, PosTotal: 2, NegTotal: 1},
		},
		pools: []PoolRecord{{Prog: 1, Suite: 3, Op: 2, At: 4, From: 0}},
	}))
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
