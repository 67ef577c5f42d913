package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"linkclust/internal/fault"
)

// Entry envelope: every persisted artifact outside the journal (cache
// entries, graph blobs) is one file of header + payload.
//
//	offset  size  field
//	0       4     magic "LCPE"
//	4       4     format version (little-endian, = 1)
//	8       4     kind code (EntryPairs / EntryResult / EntryGraph)
//	12      8     payload byte length
//	20      4     CRC32 (IEEE) of the payload
//	24      8     reserved (zero)
//	32      ...   payload
//
// The kind code in the header is validated against the kind the reader asked
// for, so a file renamed across kinds reads as corrupt rather than decoding
// garbage into the wrong type. An entry that exists and validates is
// complete — the rename that finalizes it is atomic — so no separate index
// of entries is kept.
const (
	entryMagic      = "LCPE"
	entryVersion    = 1
	entryHeaderSize = 32
)

// Entry kinds. The code is part of the on-disk format — append, never renumber.
type Kind uint32

const (
	EntryPairs Kind = iota + 1
	EntryResult
	EntryGraph
	// Code 4 is reserved: older builds wrote sweep checkpoints under it,
	// in the ckpt/ subdirectory that Janitor now removes.
)

// kindDir maps a kind to its subdirectory: cache entries share cache/, graph
// blobs have their own lifecycle.
func kindDir(k Kind) string {
	if k == EntryGraph {
		return graphsDir
	}
	return cacheDir
}

var entryCRC = crc32.IEEETable

// EntryPath returns the file path an entry of kind k named name lives at.
// name must already be filesystem-safe (the callers use hex digests and job
// ids, both of which are).
func (d *Dir) EntryPath(k Kind, name string) string {
	return filepath.Join(d.root, kindDir(k), name+".lcpe")
}

// WriteEntry atomically persists payload as the entry (k, name): temp file
// in the destination directory, fsync, rename. An existing entry is
// replaced atomically. A firing fault.CacheStoreWrite hit (or any disk
// error) fails with ErrWriteFault and leaves no finalized file — at worst a
// temp file the janitor reclaims.
func (d *Dir) WriteEntry(k Kind, name string, payload []byte) error {
	if fault.Hit(fault.CacheStoreWrite) {
		return fmt.Errorf("entry %s/%s: injected store fault: %w", kindDir(k), name, ErrWriteFault)
	}
	var hdr [entryHeaderSize]byte
	copy(hdr[0:], entryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], entryVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(k))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(payload, entryCRC))

	dst := d.EntryPath(k, name)
	tmp, err := os.CreateTemp(filepath.Dir(dst), name+"-*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("entry %s: %v: %w", name, err, ErrWriteFault)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("entry %s: %v: %w", name, err, ErrWriteFault)
	}
	if _, err := tmp.Write(hdr[:]); err != nil {
		return cleanup(err)
	}
	if _, err := tmp.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("entry %s: %v: %w", name, err, ErrWriteFault)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("entry %s: %v: %w", name, err, ErrWriteFault)
	}
	return nil
}

// ReadEntry loads and validates the entry (k, name). A missing file returns
// os.ErrNotExist (a plain miss); any validation failure — magic, version,
// kind, length, CRC, or a firing fault.CacheStoreLoad hit — returns
// ErrCorrupt. Corrupt entries are NOT removed here; RemoveEntry is the
// caller's follow-up once it has counted the corruption.
func (d *Dir) ReadEntry(k Kind, name string) ([]byte, error) {
	data, err := os.ReadFile(d.EntryPath(k, name))
	if err != nil {
		return nil, err
	}
	if len(data) < entryHeaderSize {
		return nil, fmt.Errorf("entry %s: %d-byte file: %w", name, len(data), ErrCorrupt)
	}
	if string(data[0:4]) != entryMagic {
		return nil, fmt.Errorf("entry %s: magic %q: %w", name, data[0:4], ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != entryVersion {
		return nil, fmt.Errorf("entry %s: version %d: %w", name, v, ErrCorrupt)
	}
	if got := Kind(binary.LittleEndian.Uint32(data[8:])); got != k {
		return nil, fmt.Errorf("entry %s: kind %d, want %d: %w", name, got, k, ErrCorrupt)
	}
	plen := binary.LittleEndian.Uint64(data[12:])
	if plen != uint64(len(data)-entryHeaderSize) {
		return nil, fmt.Errorf("entry %s: header claims %d payload bytes, file has %d: %w",
			name, plen, len(data)-entryHeaderSize, ErrCorrupt)
	}
	for _, b := range data[24:entryHeaderSize] {
		if b != 0 {
			return nil, fmt.Errorf("entry %s: nonzero reserved bytes: %w", name, ErrCorrupt)
		}
	}
	payload := data[entryHeaderSize:]
	if crc := crc32.Checksum(payload, entryCRC); crc != binary.LittleEndian.Uint32(data[20:]) {
		return nil, fmt.Errorf("entry %s: crc %08x, header %08x: %w",
			name, crc, binary.LittleEndian.Uint32(data[20:]), ErrCorrupt)
	}
	if fault.Hit(fault.CacheStoreLoad) {
		return nil, fmt.Errorf("entry %s: injected corruption: %w", name, ErrCorrupt)
	}
	return payload, nil
}

// RemoveEntry deletes the entry file; missing is fine.
func (d *Dir) RemoveEntry(k Kind, name string) {
	os.Remove(d.EntryPath(k, name))
}
