// Pack-file format: the on-disk layer of the store.
//
// A pack is an append-only file of fixed-size records behind an 8-byte
// magic header. Fixed records keep the design point of the pack engines
// this layer is modeled on ("millions of small objects → bundled
// append-only files"): open cost is a sequential scan, append cost is one
// buffered write, and neither degrades as the record count grows. Every
// record carries its own CRC32C (Castagnoli — the polynomial with
// hardware support on amd64/arm64), so corruption is detected record by
// record: a torn final append is recovered by truncating the tail, while
// damage anywhere else condemns the whole pack to quarantine (the record
// boundary after a bad record cannot be trusted).
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// packMagic opens every pack file; the trailing digits version the record
// format. A pack named like ours whose header does not match cannot be
// read, so recovery quarantines it like any other corrupt pack.
const packMagic = "MWPACK01"

// recordSize is the fixed on-disk size of every record.
const recordSize = 40

// Record kinds.
const (
	// KindEval is a fitness-evaluation record: the verdict of running one
	// program against one test suite.
	KindEval uint8 = 1
	// KindPool is a legacy safe-mutation record, written by stores that
	// also kept pool members. It still decodes, so such packs stay
	// valid, but recovery skips it and Compact drops it.
	KindPool uint8 = 2
)

// Knowledge levels of an eval record, mirroring the testsuite cache's
// internal ladder: a higher level answers every question a lower one can.
// The numeric values are part of the on-disk format and must not change.
const (
	LevelNone uint8 = iota
	// LevelSafe: the safe flag is known (positive tests, short-circuited).
	LevelSafe
	// LevelOutcome: safe and repair flags are known.
	LevelOutcome
	// LevelFitness: the full test-by-test fitness is known.
	LevelFitness
)

// record flag bits.
const (
	flagSafe   = 1 << 0
	flagRepair = 1 << 1
)

// castagnoli is the CRC32C table shared by all encode/decode paths.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is the decoded wire form:
//
//	off  0: kind   uint8
//	off  1: level  uint8  (0 for a legacy pool record)
//	off  2: flags  uint8  (bit0 safe, bit1 repair)
//	off  3: zero   uint8  (reserved, must be 0)
//	off  4: prog   uint64 LE — program identity hash
//	off 12: suite  uint64 LE — suite fingerprint
//	off 20: a..d   4 × uint32 LE — pos/neg passed, pos/neg totals
//	                               (legacy pool record: op, at, from, 0)
//	off 36: crc    uint32 LE — CRC32C of bytes [0, 36)
type record struct {
	kind  uint8
	level uint8
	flags uint8
	prog  uint64
	suite uint64
	a     uint32
	b     uint32
	c     uint32
	d     uint32
}

// encode appends the record's wire form to dst and returns the result.
func (r record) encode(dst []byte) []byte {
	var buf [recordSize]byte
	buf[0] = r.kind
	buf[1] = r.level
	buf[2] = r.flags
	buf[3] = 0
	binary.LittleEndian.PutUint64(buf[4:], r.prog)
	binary.LittleEndian.PutUint64(buf[12:], r.suite)
	binary.LittleEndian.PutUint32(buf[20:], r.a)
	binary.LittleEndian.PutUint32(buf[24:], r.b)
	binary.LittleEndian.PutUint32(buf[28:], r.c)
	binary.LittleEndian.PutUint32(buf[32:], r.d)
	binary.LittleEndian.PutUint32(buf[36:], crc32.Checksum(buf[:36], castagnoli))
	return append(dst, buf[:]...)
}

// decodeRecord validates and decodes one wire record. It rejects checksum
// mismatches, unknown kinds and nonzero reserved bytes — any of which
// means the bytes cannot be trusted as a record boundary.
func decodeRecord(buf []byte) (record, error) {
	if len(buf) != recordSize {
		return record{}, fmt.Errorf("store: short record: %d bytes", len(buf))
	}
	want := binary.LittleEndian.Uint32(buf[36:])
	if got := crc32.Checksum(buf[:36], castagnoli); got != want {
		return record{}, fmt.Errorf("store: record checksum mismatch (crc %08x, want %08x)", got, want)
	}
	r := record{
		kind:  buf[0],
		level: buf[1],
		flags: buf[2],
		prog:  binary.LittleEndian.Uint64(buf[4:]),
		suite: binary.LittleEndian.Uint64(buf[12:]),
		a:     binary.LittleEndian.Uint32(buf[20:]),
		b:     binary.LittleEndian.Uint32(buf[24:]),
		c:     binary.LittleEndian.Uint32(buf[28:]),
		d:     binary.LittleEndian.Uint32(buf[32:]),
	}
	if r.kind != KindEval && r.kind != KindPool {
		return record{}, fmt.Errorf("store: unknown record kind %d", r.kind)
	}
	if buf[3] != 0 {
		return record{}, fmt.Errorf("store: nonzero reserved byte %#x", buf[3])
	}
	return r, nil
}

// evalToRecord converts the public form.
func evalToRecord(e EvalRecord) record {
	var flags uint8
	if e.Safe {
		flags |= flagSafe
	}
	if e.Repair {
		flags |= flagRepair
	}
	return record{
		kind: KindEval, level: e.Level, flags: flags,
		prog: e.Prog, suite: e.Suite,
		a: e.PosPassed, b: e.NegPassed, c: e.PosTotal, d: e.NegTotal,
	}
}

// recordToEval converts back; call only for kind == KindEval.
func recordToEval(r record) EvalRecord {
	return EvalRecord{
		Prog: r.prog, Suite: r.suite, Level: r.level,
		Safe: r.flags&flagSafe != 0, Repair: r.flags&flagRepair != 0,
		PosPassed: r.a, NegPassed: r.b, PosTotal: r.c, NegTotal: r.d,
	}
}

// packName renders the pack filename for a sequence number.
func packName(seq uint64) string {
	return fmt.Sprintf("pack-%08d.pack", seq)
}

// quarantineSuffix marks a pack pulled from service by the auditor (or by
// open-time recovery). Quarantined packs are never read, written, or
// deleted by the store; an operator inspects or removes them by hand.
const quarantineSuffix = ".quarantine"

// listPacks returns the live (non-quarantined) pack sequence numbers in
// dir, ascending.
func listPacks(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "pack-") || !strings.HasSuffix(name, ".pack") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "pack-%08d.pack", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanResult is what scanPack recovered from one pack file.
type scanResult struct {
	recs []record
	// goodOff is the offset just past the last valid record (header
	// included), or 0 when the header itself is bad: the truncation
	// point when the tail is torn.
	goodOff int64
	// err is the first decode failure, nil for a clean scan. recs holds
	// the valid prefix either way.
	err error
}

// scanPack reads a whole pack with one read and decodes its records in
// place, collecting valid records until the end or the first corrupt
// one. It never fails the open: corruption is reported in
// scanResult.err for the caller to translate into tail truncation or
// quarantine.
func scanPack(path string) scanResult {
	name := filepath.Base(path)
	buf, err := os.ReadFile(path)
	if err != nil {
		return scanResult{err: err}
	}
	if len(buf) < len(packMagic) || string(buf[:len(packMagic)]) != packMagic {
		return scanResult{err: fmt.Errorf("store: %s: bad header", name)}
	}
	body := buf[len(packMagic):]
	res := scanResult{goodOff: int64(len(packMagic)), recs: make([]record, 0, len(body)/recordSize)}
	for ; len(body) >= recordSize; body = body[recordSize:] {
		rec, err := decodeRecord(body[:recordSize])
		if err != nil {
			res.err = fmt.Errorf("store: %s: offset %d: %w", name, res.goodOff, err)
			return res
		}
		res.recs = append(res.recs, rec)
		res.goodOff += recordSize
	}
	if len(body) > 0 {
		res.err = fmt.Errorf("store: %s: partial record (%d bytes) at offset %d", name, len(body), res.goodOff)
	}
	return res
}

// quarantine renames a pack out of service, never overwriting a previous
// quarantine of the same name.
func quarantine(path string) error {
	dst := path + quarantineSuffix
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantineSuffix, i)
	}
	return os.Rename(path, dst)
}
