package store

import (
	"bytes"
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

// FuzzRecoverPackDir checks that open-time recovery is idempotent. A
// store of three small packs is damaged by a fuzzed list of operations, then opened and closed twice. Neither round may panic or
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
	s, err := Open(Options{Dir: template, FlushInterval: -1,
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
	if len(files) != 3 {
		f.Fatalf("template holds %d files, want 3 packs", len(files))
	}

	// The corruption shapes of corruption_test.go. Sorted listing:
	// 0-2 pack-00000001..3.
	op := func(kind, target byte, off int) []byte { return []byte{kind, target, byte(off >> 8), byte(off)} }
	f.Add(op(0, 2, recordSize/2))                           // torn tail on the newest pack
	f.Add(op(1, 2, 0))                                      // bad header on the newest pack
	f.Add(op(1, 0, 8*(len(packMagic)+recordSize+5)+6))      // mid-history flip in pack 1
	f.Add(op(2, 5, 0))                                      // an older store's index snapshot
	f.Add(append(op(2, 0, 5), op(2, 1, len(packMagic))...)) // stray files
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
// file, pack names before and after the live range, a quarantine name,
// and an older store's snapshot temp file and snapshot.
var strayNames = []string{"notes.txt", packName(0), packName(9), packName(2) + quarantineSuffix, ".snap-stray", legacySnapshotName}

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
// for both suites the template writes.
func reopen(t *testing.T, dir string) [][]EvalRecord {
	s, err := Open(Options{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out := evalsBySuite(s, 1, 2)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

// evalsBySuite returns s's eval records for each suite, sorted by program.
func evalsBySuite(s *Store, suites ...uint64) [][]EvalRecord {
	var out [][]EvalRecord
	for _, suite := range suites {
		evals := s.Evals(suite)
		sort.Slice(evals, func(i, j int) bool { return evals[i].Prog < evals[j].Prog })
		out = append(out, evals)
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
