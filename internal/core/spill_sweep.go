package core

import (
	"context"
	"fmt"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
	"linkclust/internal/spill"
)

// CtrSpillBytesWritten is the bytes the out-of-core sweep wrote to its
// spill file: the pair-list header, one 20-byte record per pair and the
// CRC trailer. A pure function of the pair list, hence worker-invariant.
const CtrSpillBytesWritten = "spill.bytes_written"

// spillBlockPairs is the record count of one spill block, written or read.
// The write loop polls ctx once per block, so cancel latency in the write
// phase is one block; each block costs 40 KiB of buffer on each side.
const spillBlockPairs = 2048

// SpillOptions configures the out-of-core sweep's disk round trip.
type SpillOptions struct {
	// Dir is the parent directory for the run's private spill file (one per
	// run, removed on every exit path); empty means os.TempDir().
	Dir string
}

// SweepSpilledOpts runs Algorithm 2 out of core: the pair list is written,
// in whatever order it has, to one private spill file (the pair-list file
// format of WritePairList plus a CRC32 trailer), the in-memory list is
// released, and the file is read back into one exact-size list that
// SweepParallelCtx then sweeps like any other. An unsorted list is therefore
// sorted only through the closing bucket, exactly as in memory, and the
// merge stream is bitwise identical to Sweep and SweepParallel at any
// worker count.
//
// SweepSpilledOpts CONSUMES the pair list: on success and on any read-phase
// failure pl.Pairs is nil (the memory was released to disk). Only a
// write-phase failure — file creation or a block write, before anything
// was released — leaves pl intact, which is what lets the facade fall back
// to coarse-grained clustering when the disk itself fails.
//
// Cancellation is polled once per block written and once per block read,
// then by the engine as in SweepParallelCtx. On every exit path — success,
// cancellation, fault, or panic — the spill file is removed. Spill I/O
// failures surface as typed errors from internal/spill (errors.Is against
// spill.ErrWriteFault, spill.ErrChecksum, spill.ErrTruncated,
// spill.ErrFormat).
func SweepSpilledOpts(ctx context.Context, g *graph.Graph, pl *PairList, workers int, opt SpillOptions, rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endWrite := rec.Phase("spill-write")
	f, err := spill.Create(opt.Dir)
	if err == nil {
		defer f.Remove()
		err = writeSpill(ctx, f, pl)
	}
	endWrite()
	if err != nil {
		return nil, err
	}
	rec.Add(CtrSpillBytesWritten, f.BytesWritten())

	// The write succeeded in full; the file is now the authoritative copy,
	// so release the in-memory list. From here on the run cannot fall back:
	// a read failure is terminal.
	pl.Pairs = nil
	pl.Invalidate()

	endRead := rec.Phase("spill-read")
	back, err := readSpill(ctx, f)
	endRead()
	if err != nil {
		return nil, err
	}
	return SweepParallelCtx(ctx, g, back, workers, rec)
}

// writeSpill writes pl to f in spill blocks: the pair-list header, then
// every pair's record in list order, then the trailer. ctx is polled once
// per block; a cancelled write aborts the file and returns ctx.Err().
func writeSpill(ctx context.Context, f *spill.File, pl *PairList) error {
	buf := appendPairListHeader(make([]byte, 0, spillBlockPairs*pairRecordFixed), pl)
	pairs := pl.Pairs
	for lo := 0; ; lo += spillBlockPairs {
		hi := min(lo+spillBlockPairs, len(pairs))
		for i := lo; i < hi; i++ {
			buf = appendPairRecord(buf, &pairs[i])
		}
		if f.Write(buf) != nil || hi == len(pairs) {
			break // a write error sticks; Finish reports it
		}
		buf = buf[:0]
		if ctx.Err() != nil {
			f.Abort()
			break
		}
	}
	err := f.Finish()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err != nil {
		return fmt.Errorf("core: spilling pair list: %w", err)
	}
	return nil
}

// readSpill reads back a list written by writeSpill. The file's length
// must be exactly what its header counts before the list is allocated, at
// its exact size; the records are decoded block by block, polling ctx and
// hitting fault.SlowProducer once per block, and the list is returned only
// after the trailer's CRC matched.
func readSpill(ctx context.Context, f *spill.File) (*PairList, error) {
	r, err := f.Reader()
	if err != nil {
		return nil, err
	}
	var hdr [pairListHeaderSize]byte
	if err := r.ReadFull(hdr[:]); err != nil {
		return nil, err
	}
	sorted, n, err := decodePairListHeader(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, spill.ErrFormat)
	}
	switch want := int64(n) * pairRecordFixed; {
	case r.Len() < want:
		return nil, fmt.Errorf("core: spill file holds %d record bytes, header counts %d pairs: %w", r.Len(), n, spill.ErrTruncated)
	case r.Len() > want:
		return nil, fmt.Errorf("core: spill file holds %d record bytes, header counts %d pairs: %w", r.Len(), n, spill.ErrFormat)
	}
	pairs := make([]Pair, n)
	buf := make([]byte, min(n, spillBlockPairs)*pairRecordFixed)
	for lo := 0; lo < n; lo += spillBlockPairs {
		fault.Hit(fault.SlowProducer)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk := pairs[lo:min(lo+spillBlockPairs, n)]
		b := buf[:len(blk)*pairRecordFixed]
		if err := r.ReadFull(b); err != nil {
			return nil, err
		}
		for i := range blk {
			blk[i] = decodePairRecord(b[i*pairRecordFixed:])
		}
	}
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return &PairList{Pairs: pairs, sorted: sorted}, nil
}

// SpillPayloadBytes returns the record bytes SweepSpilledOpts writes for
// pl: one fixed 20-byte record per pair. Callers size memory budgets
// against it — the bench harness derives its "pair list at least 4× the
// budget" out-of-core criterion from this value.
func SpillPayloadBytes(pl *PairList) int64 {
	return pairRecordFixed * int64(len(pl.Pairs))
}
