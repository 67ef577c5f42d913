package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary persistence for the two artifacts worth caching across process
// invocations: the pair list (the initialization phase's output, often the
// most expensive part of the pipeline) and merge streams (dendrograms).
// The format is little-endian with a magic string and version so files are
// self-identifying; readers validate counts and reject truncated input.

const (
	pairListMagic = "LCPL"
	mergesMagic   = "LCMG"
	// pairListVersion 2 stores each pair as its fixed 20-byte record;
	// version 1 also stored every pair's common-neighbor list, and is
	// refused.
	pairListVersion = 2
	mergesVersion   = 1
)

// maxDecodeCount bounds per-collection element counts during decoding so a
// corrupted header cannot trigger an enormous allocation.
const maxDecodeCount = 1 << 31

// WritePairList serializes pl — its sort state and every pair as a fixed
// 20-byte record {U, V, SimBits, N} (see appendPairRecord) — to w. The
// common neighbors are not written: a sweep regenerates them from the
// graph. A list read back from a file should be checked against its graph
// with CheckPairs before it is swept.
func WritePairList(w io.Writer, pl *PairList) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(appendPairListHeader(nil, pl)); err != nil {
		return err
	}
	var rec []byte
	for i := range pl.Pairs {
		rec = appendPairRecord(rec[:0], &pl.Pairs[i])
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPairList deserializes a pair list written by WritePairList. It
// validates the envelope only — magic, version (a version-1 file, which
// carried common-neighbor lists, is refused as unsupported), and that every
// record the header counts is present — so the caller must still check the
// pairs against their graph with CheckPairs. Storage grows with the records
// actually read, so a hostile count cannot force a large allocation.
func ReadPairList(r io.Reader) (*PairList, error) {
	br := bufio.NewReader(r)
	var hdr [pairListHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: pair list header: %w", err)
	}
	sorted, count, err := decodePairListHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pl := &PairList{Pairs: make([]Pair, 0, min(count, 1<<16)), sorted: sorted}
	var rec [pairRecordFixed]byte
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("core: pair %d: %w", i, err)
		}
		pl.Pairs = append(pl.Pairs, decodePairRecord(rec[:]))
	}
	return pl, nil
}

// pairListHeaderSize is the byte length of the pair-list header: magic,
// version, sorted flag and pair count.
const pairListHeaderSize = 16

// appendPairListHeader appends pl's pair-list header to dst.
func appendPairListHeader(dst []byte, pl *PairList) []byte {
	sorted := uint32(0)
	if pl.sorted {
		sorted = 1
	}
	dst = append(dst, pairListMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, pairListVersion)
	dst = binary.LittleEndian.AppendUint32(dst, sorted)
	return binary.LittleEndian.AppendUint32(dst, uint32(len(pl.Pairs)))
}

// decodePairListHeader validates a pair-list header — magic, version (a
// version-1 file is refused as unsupported) and a plausible count — and
// returns its sorted flag and pair count.
func decodePairListHeader(h []byte) (sorted bool, count int, err error) {
	if string(h[:4]) != pairListMagic {
		return false, 0, fmt.Errorf("core: bad magic %q, want %q", h[:4], pairListMagic)
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != pairListVersion {
		return false, 0, fmt.Errorf("core: unsupported pair list version %d", v)
	}
	n := binary.LittleEndian.Uint32(h[12:])
	if n > maxDecodeCount {
		return false, 0, fmt.Errorf("core: implausible pair count %d", n)
	}
	return binary.LittleEndian.Uint32(h[8:]) == 1, int(n), nil
}

// WriteMerges serializes a merge stream over n edges to w.
func WriteMerges(w io.Writer, n int, merges []Merge) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mergesMagic); err != nil {
		return err
	}
	for _, v := range []uint32{mergesVersion, uint32(n), uint32(len(merges))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for i := range merges {
		m := &merges[i]
		for _, v := range []int32{m.Level, m.A, m.B, m.Into} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(m.Sim)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMerges deserializes a merge stream written by WriteMerges, returning
// the edge count and the merges.
func ReadMerges(r io.Reader) (int, []Merge, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, mergesMagic); err != nil {
		return 0, nil, err
	}
	var version, n, count uint32
	for _, v := range []*uint32{&version, &n, &count} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return 0, nil, fmt.Errorf("core: merges header: %w", err)
		}
	}
	if version != mergesVersion {
		return 0, nil, fmt.Errorf("core: unsupported merges version %d", version)
	}
	if count > maxDecodeCount || n > maxDecodeCount {
		return 0, nil, fmt.Errorf("core: implausible merges header (n=%d count=%d)", n, count)
	}
	merges := make([]Merge, count)
	for i := range merges {
		m := &merges[i]
		for _, v := range []*int32{&m.Level, &m.A, &m.B, &m.Into} {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return 0, nil, fmt.Errorf("core: merge %d: %w", i, err)
			}
		}
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return 0, nil, fmt.Errorf("core: merge %d: %w", i, err)
		}
		m.Sim = math.Float64frombits(bits)
		if m.A < 0 || m.B < 0 || m.Into < 0 || m.A >= int32(n) || m.B >= int32(n) || m.Into >= int32(n) {
			return 0, nil, fmt.Errorf("core: merge %d references edge outside [0,%d)", i, n)
		}
	}
	return int(n), merges, nil
}

// Fixed per-pair records, shared by the pair-list file body and the
// out-of-core spill path. Each record is the 20-byte U(4) V(4) SimBits(8)
// N(4), little-endian like everything above; the spill file adds a CRC32
// trailer to the whole envelope. Sim travels as raw float64 bits, so a
// decoded pair is bitwise identical to its source.

// pairRecordFixed is the byte length of a record.
const pairRecordFixed = 20

// appendPairRecord appends p's record to dst and returns the extended
// slice.
func appendPairRecord(dst []byte, p *Pair) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.U))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.V))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Sim))
	return binary.LittleEndian.AppendUint32(dst, uint32(p.N))
}

// decodePairRecord decodes one record from the first pairRecordFixed bytes
// of b.
func decodePairRecord(b []byte) Pair {
	return Pair{
		U:   int32(binary.LittleEndian.Uint32(b[0:])),
		V:   int32(binary.LittleEndian.Uint32(b[4:])),
		Sim: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		N:   int32(binary.LittleEndian.Uint32(b[16:])),
	}
}

func expectMagic(br *bufio.Reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(br, buf); err != nil {
		return fmt.Errorf("core: reading magic: %w", err)
	}
	if string(buf) != magic {
		return fmt.Errorf("core: bad magic %q, want %q", buf, magic)
	}
	return nil
}
