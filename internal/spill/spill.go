// Package spill is the disk round trip of the out-of-core sweep: one private
// file per run, written once, sequentially, in caller-sized blocks, then
// read back once, with a CRC32 (IEEE) trailer over every byte before it.
//
// The file is deliberately ignorant of what it holds: internal/core writes
// the pair list's LCPL envelope through it and decodes it on the way back.
// What the package does own is integrity and lifecycle: the writer's sticky
// first error and the fault.SpillWrite point (once per block), the reader's
// length and CRC checks and the fault.SpillRead point, the typed errors
// below, and Remove, which closes and deletes the file on every exit path of
// its caller. A File is not safe for concurrent use.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"linkclust/internal/fault"
)

// Typed failure classes, matchable with errors.Is through whatever context
// wrapping the callers add.
var (
	// ErrWriteFault is the write-side failure surfaced when a block or the
	// trailer fails to write (or the fault.SpillWrite point fires,
	// simulating ENOSPC). The caller's data is still intact when it sees
	// this — nothing was consumed yet — so it may fall back to an in-memory
	// path.
	ErrWriteFault = errors.New("spill: write failed")
	// ErrChecksum marks a file whose contents do not match its trailer's
	// CRC (or whose read was failed by the fault.SpillRead point).
	ErrChecksum = errors.New("spill: checksum mismatch")
	// ErrTruncated marks a file shorter than its contents claim.
	ErrTruncated = errors.New("spill: file truncated")
	// ErrFormat marks a file whose contents are malformed: a bad envelope,
	// or bytes left over after everything its header counts.
	ErrFormat = errors.New("spill: bad file format")
	// ErrAborted is the sticky error installed by Abort.
	ErrAborted = errors.New("spill: write aborted")
)

// trailerSize is the byte length of the CRC32 trailer.
const trailerSize = 4

var crcTable = crc32.IEEETable

// File is one run's spill file. Create it, Write blocks, seal it with
// Finish, read it back through Reader, and always Remove it when done.
type File struct {
	f     *os.File
	crc   uint32
	bytes int64
	err   error
}

// Create creates a new private file under dir; empty means os.TempDir().
func Create(dir string) (*File, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "linkclust-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: creating spill file: %w", err)
	}
	return &File{f: f}, nil
}

// Path returns the file's path (for tests and diagnostics).
func (s *File) Path() string { return s.f.Name() }

// BytesWritten returns the bytes written so far, trailer included. After a
// successful Finish it is a pure function of the blocks written.
func (s *File) BytesWritten() int64 { return s.bytes }

// Abort installs ErrAborted, so later writes and Finish fail fast. Used on
// cancellation, where the data will be discarded anyway.
func (s *File) Abort() {
	if s.err == nil {
		s.err = ErrAborted
	}
}

// Write appends one block, maintaining the running CRC. The
// fault.SpillWrite point fires once per block; a firing hit drops the
// block and fails the file with ErrWriteFault, the deterministic stand-in
// for ENOSPC. The first error sticks: later writes are no-ops that return
// it.
func (s *File) Write(blk []byte) error {
	if s.err != nil {
		return s.err
	}
	if fault.Hit(fault.SpillWrite) {
		s.err = fmt.Errorf("spill: block write: %w", ErrWriteFault)
		return s.err
	}
	n, err := s.f.Write(blk)
	s.crc = crc32.Update(s.crc, crcTable, blk[:n])
	s.bytes += int64(n)
	if err != nil {
		s.err = fmt.Errorf("spill: block write: %v: %w", err, ErrWriteFault)
	}
	return s.err
}

// Finish appends the CRC trailer. It returns the file's first error, if
// any; a file whose Finish failed must not be read.
func (s *File) Finish() error {
	if s.err != nil {
		return s.err
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint32(tr[:], s.crc)
	if _, err := s.f.Write(tr[:]); err != nil {
		s.err = fmt.Errorf("spill: trailer write: %v: %w", err, ErrWriteFault)
		return s.err
	}
	s.bytes += trailerSize
	return nil
}

// Remove closes and deletes the file. Idempotent.
func (s *File) Remove() error {
	s.f.Close()
	if err := os.Remove(s.f.Name()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Reader reads back a finished file's contents — every byte before the
// trailer — in order, and checks them against the trailer at Verify. Bytes
// it returns must not be trusted before Verify succeeds.
type Reader struct {
	r    *io.SectionReader
	left int64
	crc  uint32
	want uint32
}

// Reader opens the finished file for reading from its first byte. The
// length of the contents is fixed here, from the file's size on disk.
func (s *File) Reader() (*Reader, error) {
	st, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	size := st.Size() - trailerSize
	if size < 0 {
		return nil, fmt.Errorf("spill: %d-byte file: %w", st.Size(), ErrTruncated)
	}
	var tr [trailerSize]byte
	if _, err := s.f.ReadAt(tr[:], size); err != nil {
		return nil, fmt.Errorf("spill: reading trailer: %w", err)
	}
	return &Reader{
		r:    io.NewSectionReader(s.f, 0, size),
		left: size,
		want: binary.LittleEndian.Uint32(tr[:]),
	}, nil
}

// Len returns the number of content bytes not yet read.
func (r *Reader) Len() int64 { return r.left }

// ReadFull reads exactly len(p) content bytes; fewer left is ErrTruncated.
func (r *Reader) ReadFull(p []byte) error {
	if int64(len(p)) > r.left {
		return fmt.Errorf("spill: %d bytes wanted, %d left: %w", len(p), r.left, ErrTruncated)
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		return fmt.Errorf("spill: read: %w", err)
	}
	r.left -= int64(len(p))
	r.crc = crc32.Update(r.crc, crcTable, p)
	return nil
}

// Verify checks, once the caller has read everything it expects, that no
// content is left over (ErrFormat) and that the contents match the trailer
// (ErrChecksum). The fault.SpillRead point fires here, after the real
// check passed; a firing hit reports ErrChecksum on sound bytes.
func (r *Reader) Verify() error {
	if r.left != 0 {
		return fmt.Errorf("spill: %d bytes past the end of the contents: %w", r.left, ErrFormat)
	}
	if r.crc != r.want {
		return fmt.Errorf("spill: crc %08x, trailer %08x: %w", r.crc, r.want, ErrChecksum)
	}
	if fault.Hit(fault.SpillRead) {
		return fmt.Errorf("spill: injected corruption: %w", ErrChecksum)
	}
	return nil
}
