package core

import (
	"context"
	"fmt"
	"slices"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
	"linkclust/internal/spill"
)

// Counter names recorded by the out-of-core (spilled) sweep.
const (
	// CtrSpillBuckets counts the non-empty similarity buckets written to
	// disk. The bucket width adapts to list size only, never to workers, so
	// the count is a pure function of the pair list and worker-invariant.
	CtrSpillBuckets = "spill.buckets"
	// CtrSpillBytesWritten is the bytes the spill store wrote (encoded pair
	// payloads plus per-bucket headers). A pure function of the pair list,
	// hence worker-invariant.
	CtrSpillBytesWritten = "spill.bytes_written"
	// CtrSpillReadStalls counts consumer waits during read-back: times the
	// sweep finished every published bucket and blocked for the next one to
	// come off disk. A timing artifact — NOT worker-invariant.
	CtrSpillReadStalls = "spill.read_stalls"
)

// spillScatterPollPairs is the cancellation-poll interval of the spill
// scatter: each worker checks ctx once per this many pairs encoded, so
// cancel latency during the write phase is bounded by one poll interval
// plus one in-flight block per writer.
const spillScatterPollPairs = 2048

// spillBucketAhead bounds the frontier channel: the read-back producer may
// run at most this many buckets ahead of the consumer before blocking.
const spillBucketAhead = 8

// spillReaders returns the read-back producer's decode/sort budget: roughly
// half the worker count, leaving the rest for the consumer's resolution
// fan-outs that run concurrently with bucket decoding.
func spillReaders(workers int) int {
	return max(workers/2, 1)
}

// SpillOptions configures the out-of-core sweep's disk store.
type SpillOptions struct {
	// Dir is the parent directory for the run's private spill directory
	// (one per run, removed on every exit path); empty means os.TempDir().
	Dir string
}

// SweepSpilledOpts runs Algorithm 2 out of core: the pair list is
// MSD-radix partitioned on its similarity bits into per-bucket spill files,
// the in-memory list is released, and a producer pool streams the buckets
// back from disk (each sorted on arrival, in descending-similarity bucket
// order) into the windowed engine of SweepParallel. Buckets
// decoded after the engine closes (see closeIfSpanned) are published
// unsorted: the closure pass that retires them is order-free. The pair
// list therefore never needs to be resident twice; the merge stream stays
// bitwise identical to Sweep and SweepParallel at any worker count.
//
// SweepSpilledOpts CONSUMES the pair list: on success and on any read-phase
// failure pl.Pairs is nil (the memory was released to disk). Only a
// write-phase failure — store creation or a block write, before anything
// was released — leaves pl intact, which is what lets the facade fall back
// to coarse-grained clustering when the disk itself fails.
//
// Cancellation points are the scatter's per-worker poll (write phase), the
// producer's bucket claims and publishes, and the engine's op-count window
// cuts (read phase); on every exit path — success, cancellation, fault, or
// panic — the run's spill directory is removed and no goroutine outlives
// the call. Spill I/O failures surface as typed errors from internal/spill
// (errors.Is against spill.ErrWriteFault, spill.ErrChecksum,
// spill.ErrTruncated, spill.ErrFormat).
func SweepSpilledOpts(ctx context.Context, g *graph.Graph, pl *PairList, workers int, opt SpillOptions, rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	workers = par.Normalize(workers)
	end := rec.Phase("sweep")
	defer end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e := &sweepEngine{g: g, workers: workers, ctx: ctx}
	n := len(pl.Pairs)
	if n == 0 {
		e.pl = &PairList{}
		e.init()
		if err := e.consume(0, true); err != nil {
			return nil, err
		}
		pl.Pairs = nil
		pl.Invalidate()
		recordSweepEngine(rec, e)
		recordSpill(rec, 0, 0, 0)
		return e.res, nil
	}

	// Phase A — histogram + scatter to disk.
	endWrite := rec.Phase("spill-write")
	pairs := pl.Pairs
	w := min(workers, n)
	shift, offs, bucketIDs := bucketLayout(pairs, w)

	store, err := spill.NewStore(bucketIDs, spill.Options{Dir: opt.Dir})
	if err != nil {
		endWrite()
		return nil, err
	}
	defer store.Remove()

	par.Do(n, w, func(t, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			if (i-lo)%spillScatterPollPairs == 0 && ctx.Err() != nil {
				return
			}
			buf = appendPairRecord(buf[:0], &pairs[i])
			if store.Append(simBucket(pairs[i].Sim, shift), buf) != nil {
				return // sticky store error; FinishWrites reports it
			}
		}
	})
	if ctx.Err() != nil {
		store.Abort()
	}
	werr := store.FinishWrites()
	endWrite()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, fmt.Errorf("core: spilling pair list: %w", werr)
	}

	// Phase B — the write succeeded in full; the on-disk copy is now the
	// authoritative one, so release the in-memory list. From here on the
	// run cannot fall back: a read failure is terminal.
	pl.Pairs = nil
	pl.Invalidate()
	pairs = nil

	// Phase C — stream the buckets back through the engine: an ordered
	// producer pool decodes and sorts buckets while the consumer merges the
	// ones already published.
	buf := make([]Pair, n)
	e.pl = &PairList{Pairs: buf}
	// The read-back places every bucket itself, sorted until closure.
	e.cur = &SortCursor{shift: shift, offs: offs, ids: bucketIDs, pl: e.pl, placed: len(bucketIDs)}
	e.init()

	endMerge := rec.Phase("merge")
	defer endMerge()

	prodCtx, stopProducer := context.WithCancel(ctx)
	defer stopProducer()

	slotPairs := make([][]Pair, len(bucketIDs))
	slotErr := make([]error, len(bucketIDs))
	var readErr error
	frontiers := make(chan int, spillBucketAhead)
	prodDone := make(chan error, 1)
	go func() {
		defer close(frontiers)
		prodDone <- par.OrderedCtx(prodCtx, len(bucketIDs), spillReaders(workers), func(i int) {
			fault.Hit(fault.SlowProducer)
			b := bucketIDs[i]
			bk, err := store.OpenBucket(b)
			if err != nil {
				slotErr[i] = err
				return
			}
			defer bk.Close()
			want := offs[b+1] - offs[b]
			if bk.Pairs != want {
				slotErr[i] = fmt.Errorf("core: spill bucket %d holds %d pairs, partition expects %d", b, bk.Pairs, want)
				return
			}
			ps, err := decodePairRecords(bk.Payload, want)
			if err != nil {
				slotErr[i] = err
				return
			}
			if !e.spanned.Load() {
				slices.SortFunc(ps, cmpPairs)
			}
			slotPairs[i] = ps
		}, func(i int) {
			if readErr != nil {
				return
			}
			if slotErr[i] != nil {
				// Stop the stream at the first bad bucket: record the error,
				// release the workers, and publish nothing further — the
				// consumer drains to the close and reports readErr.
				readErr = slotErr[i]
				stopProducer()
				return
			}
			b := bucketIDs[i]
			copy(buf[offs[b]:offs[b+1]], slotPairs[i])
			slotPairs[i] = nil
			select {
			case frontiers <- offs[b+1]:
			case <-prodCtx.Done():
			}
		})
	}()

	// Join the producer before unwinding on a consumer panic: release it,
	// drain to the channel close, and wait for its pool, so no read-back
	// worker outlives the call.
	prodJoined := false
	defer func() {
		if !prodJoined {
			stopProducer()
			for range frontiers {
			}
			<-prodDone
		}
	}()

	var stalls int64
	var cerr error
	for {
		var f int
		var ok bool
		select {
		case f, ok = <-frontiers:
		default:
			f, ok = <-frontiers
			if ok {
				stalls++
			}
		}
		if !ok {
			break
		}
		if cerr == nil {
			if cerr = e.consume(f, false); cerr != nil {
				stopProducer()
			}
		}
	}
	prodJoined = true
	perr := <-prodDone
	err = cerr
	if err == nil && readErr != nil {
		err = readErr
	}
	if err == nil && perr != nil {
		err = perr
	}
	if err == nil {
		err = e.consume(n, true)
	}
	if err != nil {
		return nil, err
	}
	recordSweepEngine(rec, e)
	recordSpill(rec, int64(len(bucketIDs)), store.BytesWritten(), stalls)
	return e.res, nil
}

// SpillPayloadBytes returns the exact on-disk payload footprint SweepSpilledOpts
// would write for pl: one fixed 20-byte record per pair. Callers size
// memory budgets against it — the bench harness derives its "pair list at
// least 4× the budget" out-of-core criterion from this value.
func SpillPayloadBytes(pl *PairList) int64 {
	return pairRecordFixed * int64(len(pl.Pairs))
}

func recordSpill(rec *obs.Recorder, buckets, bytes, stalls int64) {
	if rec == nil {
		return
	}
	rec.Add(CtrSpillBuckets, buckets)
	rec.Add(CtrSpillBytesWritten, bytes)
	rec.Add(CtrSpillReadStalls, stalls)
}
