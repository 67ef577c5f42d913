package spill

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"linkclust/internal/fault"
	"linkclust/internal/testkit"
)

// writeFile writes blocks to a new spill file under dir and finishes it.
func writeFile(t *testing.T, dir string, blocks ...[]byte) *File {
	t.Helper()
	f, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Remove() })
	for _, b := range blocks {
		if err := f.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return f
}

// readFile reads a finished file's whole contents back and verifies them.
func readFile(f *File) ([]byte, error) {
	r, err := f.Reader()
	if err != nil {
		return nil, err
	}
	got := make([]byte, r.Len())
	if err := r.ReadFull(got); err != nil {
		return nil, err
	}
	return got, r.Verify()
}

// testBlocks returns a few blocks of distinct bytes and their concatenation.
func testBlocks() ([][]byte, []byte) {
	var blocks [][]byte
	var all []byte
	for j := 0; j < 7; j++ {
		b := []byte(fmt.Sprintf("block-%d-%s|", j, bytes.Repeat([]byte{byte('a' + j)}, 10*j)))
		blocks = append(blocks, b)
		all = append(all, b...)
	}
	return blocks, all
}

// TestStoreRoundTrip: blocks written in order come back as their exact
// concatenation, read in pieces of any size, and verify.
func TestStoreRoundTrip(t *testing.T) {
	blocks, want := testBlocks()
	f := writeFile(t, t.TempDir(), blocks...)
	got, err := readFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, wrote %q", got, want)
	}
	// Piecewise reads see the same bytes and the same verdict.
	r, err := f.Reader()
	if err != nil {
		t.Fatal(err)
	}
	var pieces []byte
	for r.Len() > 0 {
		p := make([]byte, min(13, r.Len()))
		if err := r.ReadFull(p); err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, p...)
	}
	if err := r.Verify(); err != nil || !bytes.Equal(pieces, want) {
		t.Fatalf("piecewise read: %v, equal=%v", err, bytes.Equal(pieces, want))
	}
}

// TestOpenBucketDetectsCorruption: the file's contents are checked whole.
// Every single-byte flip — contents or trailer — fails with ErrChecksum;
// every truncation fails with a typed error (ErrTruncated when not even the
// trailer is left, otherwise the trailer no longer matches); a reader that
// stops short of the contents fails with ErrFormat; and reading past them
// with ErrTruncated.
func TestOpenBucketDetectsCorruption(t *testing.T) {
	blocks, _ := testBlocks()
	f := writeFile(t, t.TempDir(), blocks...)
	orig, err := os.ReadFile(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	put := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(f.Path(), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := range orig {
		flipped := bytes.Clone(orig)
		flipped[i] ^= 0x01
		put(flipped)
		if _, err := readFile(f); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d of %d: error %v, want ErrChecksum", i, len(orig), err)
		}
	}
	for n := 0; n < len(orig); n++ {
		put(orig[:n])
		_, err := readFile(f)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncated to %d of %d bytes: error %v, want ErrTruncated or ErrChecksum", n, len(orig), err)
		}
		if n < trailerSize && !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated to %d bytes: error %v, want ErrTruncated", n, err)
		}
	}

	put(orig)
	r, err := f.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReadFull(make([]byte, r.Len()-1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); !errors.Is(err, ErrFormat) {
		t.Fatalf("verify with a byte unread: error %v, want ErrFormat", err)
	}
	if err := r.ReadFull(make([]byte, 2)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past the contents: error %v, want ErrTruncated", err)
	}
	if _, err := readFile(f); err != nil {
		t.Fatalf("restored file still rejected: %v", err)
	}
}

// TestWriteFaultFailsStore: an armed SpillWrite fails the block it fires on
// with ErrWriteFault; the error sticks through later writes and Finish.
func TestWriteFaultFailsStore(t *testing.T) {
	defer fault.Reset()
	fault.Arm(fault.SpillWrite, 2, nil)
	f, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Remove()
	if err := f.Write([]byte("first")); err != nil {
		t.Fatalf("first block: %v", err)
	}
	if err := f.Write([]byte("second")); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("second block: error %v, want ErrWriteFault", err)
	}
	if err := f.Write([]byte("third")); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("write after a fault: error %v, want the sticky ErrWriteFault", err)
	}
	if err := f.Finish(); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("finish error %v, want ErrWriteFault", err)
	}
	if got := f.BytesWritten(); got != int64(len("first")) {
		t.Fatalf("BytesWritten = %d after a failed block, want %d", got, len("first"))
	}
}

// TestReadFaultReportsChecksum: an armed SpillRead fails Verify with
// ErrChecksum even though the bytes on disk are sound.
func TestReadFaultReportsChecksum(t *testing.T) {
	defer fault.Reset()
	blocks, want := testBlocks()
	f := writeFile(t, t.TempDir(), blocks...)
	fault.Arm(fault.SpillRead, 1, nil)
	if _, err := readFile(f); !errors.Is(err, ErrChecksum) {
		t.Fatalf("error %v, want injected ErrChecksum", err)
	}
	fault.Reset()
	got, err := readFile(f)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("disarmed read: %v, equal=%v", err, bytes.Equal(got, want))
	}
}

// TestAbortAndRemove: Abort makes later writes and Finish fail fast with
// ErrAborted; Remove deletes the file and is idempotent.
func TestAbortAndRemove(t *testing.T) {
	parent := t.TempDir()
	f, err := Create(parent)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if err := f.Write([]byte("def")); !errors.Is(err, ErrAborted) {
		t.Fatalf("write error %v, want ErrAborted", err)
	}
	if err := f.Finish(); !errors.Is(err, ErrAborted) {
		t.Fatalf("finish error %v, want ErrAborted", err)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(); err != nil {
		t.Fatalf("second Remove: %v", err)
	}
	testkit.RequireEmptyDir(t, parent)
}

// TestBytesWrittenAccounting: every block's bytes plus the trailer.
func TestBytesWrittenAccounting(t *testing.T) {
	blocks, all := testBlocks()
	f := writeFile(t, t.TempDir(), blocks...)
	want := int64(len(all)) + trailerSize
	if got := f.BytesWritten(); got != want {
		t.Fatalf("BytesWritten = %d, want %d", got, want)
	}
	st, err := os.Stat(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != want {
		t.Fatalf("file holds %d bytes, BytesWritten says %d", st.Size(), want)
	}
}
