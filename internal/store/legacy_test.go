package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// legacyPoolRecord hand-encodes a kind-2 pool record in the layout older
// stores wrote: op, at and from in the first three value words.
func legacyPoolRecord(prog, suite uint64, op uint8, at, from uint32) []byte {
	var b [recordSize]byte
	b[0] = KindPool
	binary.LittleEndian.PutUint64(b[4:], prog)
	binary.LittleEndian.PutUint64(b[12:], suite)
	binary.LittleEndian.PutUint32(b[20:], uint32(op))
	binary.LittleEndian.PutUint32(b[24:], at)
	binary.LittleEndian.PutUint32(b[28:], from)
	binary.LittleEndian.PutUint32(b[36:], crc32.Checksum(b[:36], castagnoli))
	return b[:]
}

// legacySnapshot hand-encodes an index snapshot (index.snap) in the
// layout older stores wrote beside their packs: magic, the (pack, offset)
// it covered, the eval and pool record counts, the eval records, an
// nPools section of pool records and a CRC32C of everything before it.
func legacySnapshot(seq uint64, off int64, evals []EvalRecord, pools ...[]byte) []byte {
	buf := []byte("MWSNAP01")
	for _, v := range []uint64{seq, uint64(off), uint64(len(evals)), uint64(len(pools))} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, e := range evals {
		buf = evalToRecord(e).encode(buf)
	}
	for _, p := range pools {
		buf = append(buf, p...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestLegacyPoolRecordsOpenAndCompactAway: a store written when the
// store also kept pool records, with kind-2 records between eval records
// in its pack, opens with nothing quarantined and warm-starts exactly its
// eval records. An index snapshot it left beside the pack, here one with
// a pool section that covers part of the pack, is ignored and removed:
// the packs alone serve the same records. Compact then leaves only eval
// records on disk.
func TestLegacyPoolRecordsOpenAndCompactAway(t *testing.T) {
	evals := []EvalRecord{
		{Prog: 1, Suite: 7, Level: LevelSafe, Safe: true},
		{Prog: 2, Suite: 7, Level: LevelOutcome, Safe: true, Repair: true},
		{Prog: 1, Suite: 7, Level: LevelFitness, Safe: true, PosPassed: 4, PosTotal: 4, NegTotal: 1},
		{Prog: 3, Suite: 8, Level: LevelSafe},
	}
	pools := [][]byte{
		legacyPoolRecord(1, 5, 0, 3, 0),
		legacyPoolRecord(1, 5, 2, 4, 6),
		legacyPoolRecord(9, 5, 1, 0, 2),
	}
	// Pack: eval, pool, eval, pool, pool, eval, eval. The snapshot
	// covers the first four records: two evals and two pool records.
	pack := []byte(packMagic)
	for _, rec := range [][]byte{
		evalToRecord(evals[0]).encode(nil), pools[0],
		evalToRecord(evals[1]).encode(nil), pools[1], pools[2],
		evalToRecord(evals[2]).encode(nil), evalToRecord(evals[3]).encode(nil),
	} {
		pack = append(pack, rec...)
	}
	snap := legacySnapshot(1, int64(len(packMagic))+4*recordSize, evals[:2], pools[0], pools[1])
	// The warm-start set: the highest level per key, by suite.
	want := map[uint64][]EvalRecord{7: {evals[2], evals[1]}, 8: {evals[3]}}

	for _, withSnap := range []bool{true, false} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, packName(1)), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		if withSnap {
			if err := os.WriteFile(filepath.Join(dir, legacySnapshotName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check := func(s *Store, when string) {
			t.Helper()
			st := s.Stats()
			if st.QuarantinedPacks != 0 || st.EvalRecords != 3 || st.PoolRecords != 0 {
				t.Fatalf("snapshot=%v, %s: stats %+v; want 0 quarantined, 3 eval and 0 pool records", withSnap, when, st)
			}
			if _, err := os.Stat(filepath.Join(dir, legacySnapshotName)); !os.IsNotExist(err) {
				t.Fatalf("snapshot=%v, %s: %s still present (%v)", withSnap, when, legacySnapshotName, err)
			}
			for suite, recs := range want {
				got := s.Evals(suite)
				sort.Slice(got, func(i, j int) bool { return got[i].Prog < got[j].Prog })
				if !reflect.DeepEqual(got, recs) {
					t.Fatalf("snapshot=%v, %s: Evals(%d) = %+v, want %+v", withSnap, when, suite, got, recs)
				}
			}
		}

		s := openT(t, dir)
		check(s, "open")
		if _, err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openT(t, dir)
		check(s, "compacted")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		seqs, err := listPacks(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			res := scanPack(filepath.Join(dir, packName(seq)))
			if res.err != nil {
				t.Fatalf("compacted pack %d: %v", seq, res.err)
			}
			for _, rec := range res.recs {
				if rec.kind != KindEval {
					t.Fatalf("snapshot=%v: compacted pack %d still holds a kind-%d record", withSnap, seq, rec.kind)
				}
			}
		}
		if ents, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix+"*")); len(ents) != 0 {
			t.Fatalf("snapshot=%v: quarantined files %v", withSnap, ents)
		}
	}
}
