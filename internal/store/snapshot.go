// Index snapshots: a point-in-time serialization of the in-memory index
// so Open can skip re-scanning the pack history before a known point.
// The snapshot is advisory — if it is missing, stale, or corrupt, Open
// silently falls back to a full pack scan, so a snapshot can never lose
// data or serve bytes the packs don't back.
package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
)

// snapshotName is the single snapshot file per store directory; it is
// replaced atomically (temp file + rename) on every snapshot.
const snapshotName = "index.snap"

// snapshotMagic versions the snapshot format independently of packs.
const snapshotMagic = "MWSNAP01"

// snapshot is the serialized index state.
//
// Layout (all integers LE):
//
//	magic       8 bytes "MWSNAP01"
//	appliedSeq  uint64 — pack history is folded in up to...
//	appliedOff  uint64 — ...this offset of this pack
//	nEvals      uint64
//	nPools      uint64 — written as 0
//	evals       nEvals × recordSize (encoded eval records, sorted by key)
//	pools       nPools × recordSize (legacy pool records: read and dropped)
//	crc         uint32 — CRC32C of everything above
type snapshot struct {
	appliedSeq uint64
	appliedOff int64
	evals      []EvalRecord
}

// writeSnapshot serializes snap to path atomically: temp file in the
// same directory, fsync, rename, fsync the directory.
func writeSnapshot(path string, snap snapshot) error {
	buf := encodeSnapshot(snap)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck — best-effort directory durability
		d.Close()
	}
	return nil
}

// encodeSnapshot renders snap in the layout documented on snapshot.
func encodeSnapshot(snap snapshot) []byte {
	buf := make([]byte, 0, 40+len(snap.evals)*recordSize+4)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, snap.appliedSeq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(snap.appliedOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap.evals)))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // nPools
	for _, e := range snap.evals {
		buf = evalToRecord(e).encode(buf)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// loadSnapshot reads and validates a snapshot. Any failure — missing
// file, bad magic, short read, CRC mismatch, an applied offset that is
// not a record boundary, record counts that disagree with the body,
// corrupt embedded record — returns ok=false and the caller falls back
// to a full scan.
func loadSnapshot(path string) (snapshot, bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, false
	}
	return decodeSnapshot(buf)
}

// decodeSnapshot validates and decodes a snapshot file's bytes, with
// loadSnapshot's ok=false contract for anything malformed.
func decodeSnapshot(buf []byte) (snapshot, bool) {
	if len(buf) < len(snapshotMagic)+32+4 || string(buf[:len(snapshotMagic)]) != snapshotMagic {
		return snapshot{}, false
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return snapshot{}, false
	}
	rd := body[len(snapshotMagic):]
	snap := snapshot{
		appliedSeq: binary.LittleEndian.Uint64(rd[0:]),
		appliedOff: int64(binary.LittleEndian.Uint64(rd[8:])),
	}
	// The applied offset steers the pack scan, so it must be a record
	// boundary past the header.
	if hdr := int64(len(packMagic)); snap.appliedOff < hdr || (snap.appliedOff-hdr)%recordSize != 0 {
		return snapshot{}, false
	}
	nEvals := binary.LittleEndian.Uint64(rd[16:])
	nPools := binary.LittleEndian.Uint64(rd[24:])
	rd = rd[32:]
	// Bound each count before multiplying: crafted counts must not wrap
	// the size check around to a match.
	if maxRecs := uint64(len(rd) / recordSize); nEvals > maxRecs || nPools > maxRecs ||
		(nEvals+nPools)*recordSize != uint64(len(rd)) {
		return snapshot{}, false
	}
	// Eval records first, then the legacy pool section, checked and dropped.
	for i := uint64(0); i < nEvals+nPools; i++ {
		rec, err := decodeRecord(rd[:recordSize])
		if err != nil || (rec.kind == KindEval) != (i < nEvals) {
			return snapshot{}, false
		}
		if rec.kind == KindEval {
			snap.evals = append(snap.evals, recordToEval(rec))
		}
		rd = rd[recordSize:]
	}
	return snap, true
}
