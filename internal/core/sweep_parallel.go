package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Counter names recorded by the windowed fine-grained sweep.
const (
	// CtrSweepWindows counts merge-batch windows cut from the sorted list.
	CtrSweepWindows = "sweep.windows"
	// CtrSweepNoopDrops counts operations retired without a merge because
	// both edges already shared a cluster when they were checked.
	CtrSweepNoopDrops = "sweep.noop_drops"
	// CtrSweepFlattens counts periodic whole-chain flatten passes.
	CtrSweepFlattens = "sweep.flattens"
	// CtrSweepTailOps counts operations retired by the closure pass: ops
	// after the window whose merges completed the op graph's spanning
	// forest, counted from their pairs' N without being regenerated. They
	// are no-ops by construction, so they are counted in CtrSweepNoopDrops
	// as well.
	CtrSweepTailOps = "sweep.tail_ops"
	// CtrSweepSortedPairs is recorded by sweeps that sort their own input
	// (an unsorted list, in memory or read back from a spill): the end of the
	// similarity bucket that holds the closing window's last pair, or the
	// list length for a run that never closes. Pairs past it were retired
	// unsorted. It is a pure function of the pair list, so it reads the same
	// in memory and spilled, at any worker count.
	CtrSweepSortedPairs = "sweep.sorted_pairs"
	// CtrSweepSealedPairs counts prefix pairs retired without regenerating
	// their ops because both endpoints were sealed into one cluster before
	// their window (see sealedRoot). Their N ops are counted in
	// CtrSweepNoopDrops as well. It is a function of the pair list and the
	// window cuts, so it reads the same on every engine path and at any
	// worker count; it is not in InvariantCounters because serial Sweep
	// records none, as with CtrSweepSortedPairs.
	CtrSweepSealedPairs = "sweep.sealed_pairs"
)

// InvariantCounters names the counters that are pure functions of the input
// graph and pair list, never of the worker count, the engine path (in
// memory, spilled, resumed, streamed) or timing: Phase I's pair, incident
// pair and wedge-row counts, and the sweep's op, rewrite, merge, window,
// drop, flatten and tail counts. Window cuts, drops and flattens are
// triggered by op counts only, so they belong here; CtrSweepSortedPairs does
// not, because a list that arrives sorted records none, and neither does
// CtrSweepSealedPairs, because serial Sweep records none. The differential
// tests compare exactly this set across paths, and the golden tests pin its
// hash.
var InvariantCounters = []string{
	CtrSimilarityPairs,
	CtrSimilarityIncidentPairs,
	CtrSimilarityWedgeRows,
	CtrSweepPairsProcessed,
	CtrSweepChainRewrites,
	CtrSweepMerges,
	CtrSweepWindows,
	CtrSweepNoopDrops,
	CtrSweepFlattens,
	CtrSweepTailOps,
}

// Engine tuning. Window cuts and flatten points are functions of operation
// counts only — never of the worker count — and every chain write happens
// in drain or flatten on the calling goroutine, in serial op order. The
// workers only resolve ops and check the pre-window chain, which is
// read-only while they run, so the merge stream is bitwise identical for any
// number of workers by construction.
const (
	// sweepWindowOps is the target operation count of one merge batch.
	// Windows never split a vertex pair, so the last pair may overshoot.
	sweepWindowOps = 8192
	// sweepParMinOps is the per-phase work floor for goroutine fan-out;
	// smaller phases run inline on the calling goroutine.
	sweepParMinOps = 512
	// sweepFlattenOps is the operation interval of the periodic whole-chain
	// flatten. The serial sweep path-compresses on every MERGE — 99%+ of
	// which are no-ops on real workloads — while the engine retires
	// pre-window no-ops during resolution without touching the chain, so an
	// explicit flatten keeps find paths short. The trigger counts
	// operations, never workers or wall time, so flatten points (and the
	// chain states they produce) are identical for any worker count.
	sweepFlattenOps = 1 << 19
)

// SweepParallel runs Algorithm 2 over merge batches: the sorted pair list is
// cut into windows of incident-edge operations. Within a window, workers
// resolve every op's two edge ids in parallel and drop the ops whose edges
// already share a cluster before the window (99%+ on real workloads); the
// survivors are then replayed one at a time in serial op order by drain,
// which with the periodic flatten is the chain's only writer. An unsorted
// pair list is sorted in place only as far as the sweep reads it (see
// SweepParallelCtx).
//
// The result is exact, not just dendrogram-equivalent: the merge stream
// (Level, A, B, Into, Sim per event, in order) is bitwise identical to the
// serial Sweep for any worker count, and the final partition (NumClusters,
// Chain.Assignments) matches element-wise. Only the internal pointer
// structure of array C and its change counter may differ: the serial sweep
// path-compresses on every MERGE including no-ops, while the engine retires
// pre-window no-ops without touching the chain and keeps it flat with
// periodic count-triggered flatten passes, so the two take different rewrite
// sequences to the same partition.
//
// A pair stores only its common-neighbor count N; resolution regenerates
// its ops by intersecting the packed adjacency rows of U and V, and a pair
// whose regenerated count differs from N fails the run with an error that
// names the first such pair in sorted order, exactly as serial Sweep does.
// The exception is a pair whose two endpoints are sealed into one cluster
// before its window (every incident edge of U and of V in that cluster):
// all of its ops are no-ops, so it is retired from its N without the
// intersection, and its N is trusted.
//
// The engine stops merging once the merge stream spans the op graph: after
// the window in which Levels reaches |E| minus the number of non-isolated
// components of g, every later op joins two edges already in one cluster,
// so the rest of the list is retired by summing its counts N (see retire)
// instead of being resolved and replayed. Those pairs, like the sealed
// pairs, are not checked against the graph; a list from outside Phase I is
// checked once at the boundary with CheckPairs.
func SweepParallel(g *graph.Graph, pl *PairList, workers int) (*Result, error) {
	return SweepParallelCtx(context.Background(), g, pl, workers, nil)
}

// SweepParallelCtx is SweepParallel with cooperative cancellation, panic
// isolation, and optional instrumentation: sort/merge phase timers plus the
// serial sweep's counters and the engine's window, drop, flatten and tail
// counters are recorded into rec. The context is checked at every op-count
// window cut (8192 incident operations) and inside every bucket sort, so
// cancel latency is bounded by one window of merge work (or one bucket
// sort) for any worker count; on cancellation every pool drains before
// ctx.Err() is returned, so no goroutine outlives the call. A panic inside a worker surfaces as a
// *par.WorkerPanicError. The checks are pure reads — when ctx
// never cancels, the merge stream is bitwise identical to the serial Sweep.
//
// A list flagged sorted (see NewSortedPairList) is swept as it is. Any other
// list is sorted in place only as far as the sweep reads it, through a
// SortCursor: each similarity bucket is sorted when the sweep reaches it,
// and sorting stops at the closing window's bucket. Afterwards pl.Pairs is
// a permutation whose prefix through that bucket is in list-L order and
// whose rest is in no particular order; pl.Sorted() is false unless the
// sweep sorted the last bucket. Window cuts, merges and Levels are those of
// a full sort. The unsorted rest is retired by the order-free closure pass,
// which sums its counts N.
//
// The counts N are trusted past closure and for pairs whose endpoints are
// sealed into one cluster (see SweepParallel); every other pair's N is
// checked against its regenerated ops. A list from outside Phase I is
// checked at the boundary with CheckPairs.
func SweepParallelCtx(ctx context.Context, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	workers = par.Normalize(workers)
	end := rec.Phase("sweep")
	defer end()
	endSort := rec.Phase("sort")
	cur, err := NewSortCursor(ctx, pl, workers)
	endSort()
	if err != nil {
		return nil, err
	}
	endMerge := rec.Phase("merge")
	defer func() { endMerge() }()

	n := len(pl.Pairs)
	e := &sweepEngine{g: g, pl: pl, workers: workers, ctx: ctx}
	if !pl.sorted {
		e.cur = cur
	}
	e.init()
	// Feed the list in frontier increments, each the sorted prefix so far;
	// consume's window cutter makes increment boundaries invisible to the
	// output. Bucket sorts interleave with the merges; their time stays
	// under "sort".
	e.closeIfSpanned()
	for next := 0; next < n && !e.closed; {
		if next >= cur.Sorted() {
			endMerge()
			endSort := rec.Phase("sort")
			err = cur.SortTo(next)
			endSort()
			endMerge = rec.Phase("merge")
			if err != nil {
				return nil, err
			}
		}
		next = cur.Sorted()
		if err := e.consume(next, next == n); err != nil {
			return nil, err
		}
	}
	// Retire a closed run's tail — sorted or not — in one pass; a no-op
	// otherwise.
	if err := e.consume(n, true); err != nil {
		return nil, err
	}
	recordSweepEngine(rec, e)
	return e.res, nil
}

// recordSweepEngine records the counters shared by every engine-backed
// sweep: the serial sweep's op/rewrite/merge counters plus the engine's
// window, drop, flatten and tail counters.
func recordSweepEngine(rec *obs.Recorder, e *sweepEngine) {
	if rec == nil {
		return
	}
	rec.Add(CtrSweepPairsProcessed, e.res.PairsProcessed)
	rec.Add(CtrSweepChainRewrites, e.res.Chain.Changes())
	rec.Add(CtrSweepMerges, int64(len(e.res.Merges)))
	rec.Add(CtrSweepWindows, e.windows)
	rec.Add(CtrSweepNoopDrops, e.drops)
	rec.Add(CtrSweepFlattens, e.flattens)
	rec.Add(CtrSweepTailOps, e.tailOps)
	rec.Add(CtrSweepSealedPairs, e.sealedPairs)
	if e.cur != nil {
		rec.Add(CtrSweepSortedPairs, int64(e.sortedPairs()))
	}
}

// sortedPairs returns the end of the similarity bucket that holds the
// closing window's last pair: how far a sweep that sorts as it reads had to
// sort. It needs the bucket layout of e.cur.
func (e *sweepEngine) sortedPairs() int {
	switch {
	case !e.closed:
		return len(e.pl.Pairs)
	case e.wp == 0:
		return 0
	}
	_, hi := e.cur.extent(e.pl.Pairs[e.wp-1].Sim)
	return hi
}

// sweepEngine holds the chain and the per-window operation buffers, reused
// across windows.
type sweepEngine struct {
	g       *graph.Graph
	pl      *PairList
	ch      *Chain
	workers int
	res     *Result

	// ctx is the run's cancellation context; nil means not cancellable
	// (legacy entry points). It is polled at every window cut in consume —
	// the engine's sole cancellation point, which bounds cancel latency by
	// one window of operations.
	ctx context.Context

	// Flat CSR copy of the adjacency with neighbor id and edge id packed
	// into one uint64 (id in the high half so packed order = neighbor
	// order). graph.Half is 24 bytes, so probing To fields during
	// resolution touches a cache line per ~2.6 entries; the packed copy
	// fits 8 per line and the final probe's line already holds the edge id.
	// Rebuilt in O(|V|+|E|) per sweep.
	adjOff []int32
	adjTE  []uint64

	// Neighbor bitsets of the dense vertices, those whose degree is at
	// least twice the bitset's length in words (rowWords): vertex v's is
	// bits[bitOff[v]:][:rowWords], and bitOff[v] is -1 for a sparse
	// vertex. A pair of two dense vertices is intersected word by word,
	// and a common neighbor's edge ids are found by rank: the number of
	// set bits below it is its index in the packed row. The bitsets hold
	// at most |E| words.
	rowWords int
	bitOff   []int32
	bits     []uint64

	// seal is the per-vertex seal state the resolution workers share (see
	// sealedRoot): sealedWord once the vertex is sealed, else the stamp of
	// the last window in which it was checked and found unsealed, 0 if
	// never. stamp numbers the resolved windows from 1.
	seal  []atomic.Uint32
	stamp uint32

	offs []int32       // per-pair op offsets within the window
	wbuf []survivorBuf // per-worker survivor buffers, in op order

	// Streaming window cursor: pairs [wp, wq) are accumulated into the
	// window under construction, carrying wops incident operations. Window
	// boundaries are a greedy, purely op-count-based function of the sorted
	// pair order, so they are identical whether the list is consumed whole
	// or in sorted-bucket increments.
	wp, wq int
	wops   int

	opsSinceFlatten int64

	// forest is the op graph's spanning-forest size (see forestSize): no
	// sweep over g can emit more merges. Once Levels reaches it at a window
	// boundary the engine is closed: wp stays at that boundary, and pairs
	// from wp on are only counted by retire, which advances tp.
	forest  int32
	closed  bool
	tp      int
	tailOps int64

	// cur sorts a list that did not arrive sorted (nil otherwise) as the
	// sweep reads it; sortedPairs reads its bucket layout.
	cur *SortCursor

	windows, drops, flattens, sealedPairs int64

	errMu   sync.Mutex
	errPair int
	err     error
}

// survivorBuf holds one resolution worker's survivors: the ops of its range
// that were still live (edges in different clusters) against the pre-window
// chain. The 99%+ of ops that are already no-ops before their window starts
// never reach it — resolution drops them on the spot, which is exact because
// cluster merging is monotone: edges sharing a cluster before the window
// still share it at the op's serial position. Workers cover contiguous,
// ascending op ranges, so the buffers in worker order are in serial op
// order.
type survivorBuf struct {
	pair   []int32 // survivor -> pair index
	e1, e2 []int32 // resolved incident edge ids, per survivor
	drops  int64
	sealed int64 // pairs retired as sealed
}

func (b *survivorBuf) reset() {
	b.pair = b.pair[:0]
	b.e1, b.e2 = b.e1[:0], b.e2[:0]
	b.drops, b.sealed = 0, 0
}

// init allocates the chain, the per-worker buffers and the merge stream, and
// builds the packed adjacency. It must run before the first consume call.
// The forest size bounds the merges, and a full sweep emits exactly that
// many, so the stream is allocated once at its final size.
func (e *sweepEngine) init() {
	m := e.g.NumEdges()
	e.ch = NewChain(m)
	e.forest = forestSize(e.g)
	e.res = &Result{Chain: e.ch, Merges: make([]Merge, 0, e.forest)}
	e.wbuf = make([]survivorBuf, e.workers)
	e.seal = make([]atomic.Uint32, e.g.NumVertices())
	e.buildCSR()
}

// forestSize returns the size of a maximum spanning forest of the op graph,
// whose vertices are g's edges: |E| minus the number of components of g
// that have at least one edge. Phase I emits an op for every wedge, so the
// op graph's components are exactly g's edge components, and each merge
// joins two clusters of one component.
func forestSize(g *graph.Graph) int32 {
	_, comps := graph.ConnectedComponents(g)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			comps--
		}
	}
	return int32(g.NumEdges() - comps)
}

// consume advances the window cutter over pairs below the frontier index and
// processes every completed window. A window completes when it carries at
// least sweepWindowOps incident operations (never splitting a pair), or —
// with final set — when the stream ends. Because completion is decided
// purely by op counts against the pair order, feeding the list in any
// sequence of frontier increments produces exactly the windows (and thus
// exactly the merge stream) of a single whole-list call.
//
// Pairs below the frontier must be in their final sorted positions, or the
// engine is closed, and must not change afterwards; SweepParallelCtx
// guarantees this by never advancing the frontier past the sort cursor's
// sorted prefix before closure.
//
// Closure is checked at every window boundary (and on entry, which covers a
// forest of size zero).
// The closing point depends only on the merges, so it is the same for any
// worker count and any frontier sequence; past it consume hands the pairs
// to retire.
func (e *sweepEngine) consume(frontier int, final bool) error {
	pairs := e.pl.Pairs
	e.closeIfSpanned()
	for !e.closed {
		// Accumulate pairs into the window under construction, with
		// per-pair op offsets for the parallel fill.
		for e.wq < frontier && e.wops < sweepWindowOps {
			e.offs = append(e.offs, int32(e.wops))
			e.wops += int(pairs[e.wq].N)
			e.wq++
		}
		if e.wops < sweepWindowOps && !(final && e.wq >= frontier) {
			return nil // window still open; wait for more pairs
		}
		if e.wq == e.wp {
			return nil // final call with nothing accumulated
		}
		e.offs = append(e.offs, int32(e.wops))
		if w := e.wops; w > 0 {
			// The window cut is the engine's cancellation point (and the
			// fault.CancelWindow injection site): one check per
			// sweepWindowOps operations bounds cancel latency by one window
			// without touching any per-op hot path.
			fault.Hit(fault.CancelWindow)
			if e.ctx != nil {
				if err := e.ctx.Err(); err != nil {
					return err
				}
			}
			if err := e.window(e.wp, e.wq, w); err != nil {
				return err
			}
			e.res.PairsProcessed += int64(w)
			e.windows++
			e.opsSinceFlatten += int64(w)
			if e.opsSinceFlatten >= sweepFlattenOps {
				e.flatten()
				e.opsSinceFlatten = 0
			}
		}
		e.wp = e.wq
		e.wops = 0
		e.offs = e.offs[:0]
		e.closeIfSpanned()
	}
	e.retire(frontier)
	return nil
}

// closeIfSpanned closes the engine once the merge stream spans the op
// graph. It runs only at window boundaries, where wq == wp.
func (e *sweepEngine) closeIfSpanned() {
	if !e.closed && e.res.Levels >= e.forest {
		e.closed = true
		e.tp = e.wp
	}
}

// retire finishes a closed engine's pairs below the frontier. None of their
// ops can merge (see closeIfSpanned), so they are counted as no-op drops
// from their counts N alone, without regenerating an op or touching the
// chain. The count is order-free, so a list sorted as the sweep reads it
// needs no sorting past closure.
func (e *sweepEngine) retire(frontier int) {
	var ops int64
	for i := e.tp; i < frontier; i++ {
		ops += int64(e.pl.Pairs[i].N)
	}
	e.res.PairsProcessed += ops
	e.tailOps += ops
	e.drops += ops
	e.tp = max(e.tp, frontier)
}

// flatten rewrites every chain entry to point directly at its cluster
// terminal. A single ascending pass suffices: writes preserve c[i] <= i, so
// when entry i is reached every entry below it is already flat and c[c[i]]
// is i's terminal.
func (e *sweepEngine) flatten() {
	c := e.ch.c
	var changes int64
	for i := range c {
		if r := c[c[i]]; c[i] != r {
			c[i] = r
			changes++
		}
	}
	e.ch.changes += changes
	e.flattens++
}

// window processes ops [0, w) resolved from pairs [p0, p1) to completion and
// emits their merge events in serial operation order. Resolution fans out
// and drops the ops that are no-ops against the pre-window chain; drain
// replays the survivors serially.
func (e *sweepEngine) window(p0, p1, w int) error {
	e.nextStamp()
	bufs := e.resolve(p0, p1, w)
	if e.err != nil {
		return e.err
	}
	for i := range bufs {
		e.drops += bufs[i].drops
		e.sealedPairs += bufs[i].sealed
		e.drain(&bufs[i])
	}
	return nil
}

// sealedWord is the seal state of a sealed vertex; every other value is a
// window stamp.
const sealedWord = math.MaxUint32

// nextStamp starts a window's seal checks: unsealed results of earlier
// windows no longer hold. Stamps cycle through 1..sealedWord-1; a stale
// stamp that comes round again after 2³²−2 windows can only make a sealed
// vertex read as unsealed for one window, which skips less but never
// wrongly.
func (e *sweepEngine) nextStamp() {
	e.stamp = e.stamp%(sealedWord-1) + 1
}

// sealedRoot reports whether vertex v is sealed — it has an edge, and all of
// its incident edges share one cluster of the pre-window chain — and if so
// returns that cluster. Sealing is monotone (clusters only merge), so a
// sealed vertex is never checked again, and an unsealed one is checked at
// most once per window, stopping at its first edge in another cluster. The
// check reads only the pre-window chain, which no one writes while workers
// resolve, so two workers that check v at once reach the same result and
// store the same word.
func (e *sweepEngine) sealedRoot(v int32) (int32, bool) {
	s := e.seal[v].Load()
	if s == e.stamp {
		return 0, false
	}
	row := e.adjTE[e.adjOff[v]:e.adjOff[v+1]]
	if len(row) == 0 {
		return 0, false
	}
	c := e.ch.c
	r := chainFind(c, int32(uint32(row[0])))
	if s == sealedWord {
		return r, true
	}
	for _, h := range row[1:] {
		if chainFind(c, int32(uint32(h))) != r {
			e.seal[v].Store(e.stamp)
			return 0, false
		}
	}
	e.seal[v].Store(sealedWord)
	return r, true
}

// resolve computes the window's operations — for every pair and every common
// neighbor k, the ids of edges (U, k) and (V, k) — and keeps only the
// survivors: ops whose edges are in different clusters of the pre-window
// chain. Pairs partition contiguously across workers by op offsets. It
// returns the worker buffers in op order.
func (e *sweepEngine) resolve(p0, p1, w int) []survivorBuf {
	if w < sweepParMinOps || e.workers < 2 {
		e.wbuf[0].reset()
		e.resolveRange(p0, p1, &e.wbuf[0])
		return e.wbuf[:1]
	}
	// Precompute the balanced pair ranges, then fan out through par.Run
	// so a panic inside resolution is isolated like every other pool.
	type resolveRange struct{ lo, hi int }
	var ranges []resolveRange
	np := p1 - p0
	prev := 0
	for t := 0; t < e.workers && prev < np; t++ {
		target := w * (t + 1) / e.workers
		end := prev
		for end < np && int(e.offs[end]) < target {
			end++
		}
		if t == e.workers-1 {
			end = np
		}
		if end == prev {
			continue
		}
		e.wbuf[len(ranges)].reset()
		ranges = append(ranges, resolveRange{lo: p0 + prev, hi: p0 + end})
		prev = end
	}
	par.Run(len(ranges), func(t int, _ func() bool) {
		e.resolveRange(ranges[t].lo, ranges[t].hi, &e.wbuf[t])
	})
	return e.wbuf[:len(ranges)]
}

// buildCSR flattens the adjacency into the packed resolution layout and
// builds the dense vertices' neighbor bitsets.
func (e *sweepEngine) buildCSR() {
	n := e.g.NumVertices()
	e.adjOff = make([]int32, n+1)
	e.adjTE = make([]uint64, 2*e.g.NumEdges())
	pos := int32(0)
	for v := 0; v < n; v++ {
		e.adjOff[v] = pos
		for _, h := range e.g.Neighbors(v) {
			e.adjTE[pos] = uint64(uint32(h.To))<<32 | uint64(uint32(h.Edge))
			pos++
		}
	}
	e.adjOff[n] = pos

	e.rowWords = (n + 63) / 64
	e.bitOff = make([]int32, n)
	dense := 0
	for v := range e.bitOff {
		e.bitOff[v] = -1
		if e.g.Degree(v) >= 2*e.rowWords {
			e.bitOff[v] = int32(dense * e.rowWords)
			dense++
		}
	}
	e.bits = make([]uint64, dense*e.rowWords)
	for v, o := range e.bitOff {
		if o < 0 {
			continue
		}
		row := e.bits[o:][:e.rowWords]
		for _, te := range e.adjTE[e.adjOff[v]:e.adjOff[v+1]] {
			k := te >> 32
			row[k>>6] |= 1 << (k & 63)
		}
	}
}

// resolveRange regenerates the ops of pairs [lo, hi) and keeps their
// survivors in b. A pair's ops are the common neighbors k of U and V in
// ascending order: the shorter of the two packed adjacency rows is walked
// and the longer galloped, so a pair costs O(min(deg U, deg V)) steps, and
// both edge ids come from the packed entries that matched. A pair whose
// regenerated count differs from its N stops the range (see fail).
//
// A pair whose endpoints are sealed into one cluster (see sealedRoot) is
// retired first, as N drops, without the intersection: each of its ops
// joins an edge of U's cluster to an edge of V's, so every one of them
// would be dropped below. The shorter row's vertex is checked first, since
// an unsealed check is cut short at its first foreign edge. A pair of two
// dense vertices is intersected through their neighbor bitsets instead of
// the walk (see intersectDense), in the same ascending k.
func (e *sweepEngine) resolveRange(lo, hi int, b *survivorBuf) {
	pairs := e.pl.Pairs
	adjOff, adjTE := e.adjOff, e.adjTE
	nv := uint32(len(adjOff) - 1)
	c := e.ch.c
	drops, sealed := int64(0), int64(0)
	for pi := lo; pi < hi; pi++ {
		pr := &pairs[pi]
		if uint32(pr.U) >= nv || uint32(pr.V) >= nv {
			if pr.N != 0 {
				e.fail(pi, 0)
				return
			}
			continue
		}
		// ts is the shorter row, tl the longer; the ops' edge order is
		// (U, k) then (V, k) either way.
		ts := adjTE[adjOff[pr.U]:adjOff[pr.U+1]]
		tl := adjTE[adjOff[pr.V]:adjOff[pr.V+1]]
		swap := len(ts) > len(tl)
		if swap {
			ts, tl = tl, ts
		}
		if e.sealedPair(pr.U, pr.V, swap) {
			drops += int64(pr.N)
			sealed++
			continue
		}
		if ou, ov := e.bitOff[pr.U], e.bitOff[pr.V]; ou >= 0 && ov >= 0 {
			ru := adjTE[adjOff[pr.U]:adjOff[pr.U+1]]
			rv := adjTE[adjOff[pr.V]:adjOff[pr.V+1]]
			n, d := e.intersectDense(pi, ou, ov, ru, rv, b)
			if n != pr.N {
				e.fail(pi, n)
				return
			}
			drops += d
			continue
		}
		var n int32
		j := 0
		for _, hs := range ts {
			k := hs >> 32
			// The gallop is inlined by hand: this is the innermost kernel
			// of the whole sweep, and the call overhead alone is
			// measurable.
			if j < len(tl) && tl[j]>>32 < k {
				step := 1
				for j+step < len(tl) && tl[j+step]>>32 < k {
					j += step
					step <<= 1
				}
				glo, ghi := j+1, min(j+step, len(tl))
				for glo < ghi {
					mid := int(uint(glo+ghi) >> 1)
					if tl[mid]>>32 < k {
						glo = mid + 1
					} else {
						ghi = mid
					}
				}
				j = glo
			}
			if j == len(tl) {
				break
			}
			if tl[j]>>32 != k {
				continue
			}
			e1, e2 := int32(uint32(hs)), int32(uint32(tl[j]))
			if swap {
				e1, e2 = e2, e1
			}
			j++
			n++
			if b.dropOrKeep(c, pi, e1, e2) {
				drops++
			}
		}
		if n != pr.N {
			e.fail(pi, n)
			return
		}
	}
	b.drops, b.sealed = drops, sealed
}

// intersectDense regenerates the ops of pair pi between two dense vertices
// from their neighbor bitsets at bits[ou:] and bits[ov:], whose packed rows
// are ru and rv, keeping the survivors in b. It returns the number of ops
// and of those dropped.
func (e *sweepEngine) intersectDense(pi int, ou, ov int32, ru, rv []uint64, b *survivorBuf) (n int32, drops int64) {
	bu, bv := e.bits[ou:][:e.rowWords], e.bits[ov:][:e.rowWords]
	c := e.ch.c
	// iu and iv are the packed-row indices of the first neighbor in word w.
	iu, iv := 0, 0
	for w, xu := range bu {
		xv := bv[w]
		for m := xu & xv; m != 0; m &= m - 1 {
			below := uint64(1)<<bits.TrailingZeros64(m) - 1
			e1 := int32(uint32(ru[iu+bits.OnesCount64(xu&below)]))
			e2 := int32(uint32(rv[iv+bits.OnesCount64(xv&below)]))
			n++
			if b.dropOrKeep(c, pi, e1, e2) {
				drops++
			}
		}
		iu += bits.OnesCount64(xu)
		iv += bits.OnesCount64(xv)
	}
	return n, drops
}

// dropOrKeep finds op (e1, e2)'s two terminals in the pre-window chain c.
// Equal terminals mean the op is a no-op at its serial position too
// (merging is monotone), so it is dropped here and never reaches drain,
// and dropOrKeep reports true; otherwise the op is kept as a survivor of
// pair pi.
func (b *survivorBuf) dropOrKeep(c []int32, pi int, e1, e2 int32) (dropped bool) {
	x := e1
	for c[x] != x {
		x = c[x]
	}
	y := e2
	for c[y] != y {
		y = c[y]
	}
	if x == y {
		return true
	}
	b.pair = append(b.pair, int32(pi))
	b.e1 = append(b.e1, e1)
	b.e2 = append(b.e2, e2)
	return false
}

// sealedPair reports whether u and v are both sealed into one cluster,
// checking v first when swap is set (v's row is the shorter).
func (e *sweepEngine) sealedPair(u, v int32, swap bool) bool {
	if swap {
		u, v = v, u
	}
	ru, ok := e.sealedRoot(u)
	if !ok {
		return false
	}
	rv, ok := e.sealedRoot(v)
	return ok && ru == rv
}

// fail records a pair whose regenerated op count n differs from its N,
// keeping the first in list order so the reported error matches the
// serial sweep's.
func (e *sweepEngine) fail(pi int, n int32) {
	e.errMu.Lock()
	if e.err == nil || pi < e.errPair {
		e.errPair = pi
		e.err = countMismatchError(&e.pl.Pairs[pi], n)
	}
	e.errMu.Unlock()
}

// countMismatchError is the sweeps' error for a pair whose stored
// common-neighbor count N differs from the n common neighbors its
// endpoints have in the graph: the list was not built from this graph.
func countMismatchError(pr *Pair, n int32) error {
	return fmt.Errorf("core: pair (%d,%d) lists %d common neighbors, the graph has %d", pr.U, pr.V, pr.N, n)
}

// drain replays one resolution buffer's survivors with serial Sweep's exact
// semantics — find, merge, record, one op at a time in serial op order — and
// emits each merge event with its pair's similarity as it happens, so the
// window's stream is serial Sweep's by construction. Drain is the chain's only writer besides flatten, and both
// run on the calling goroutine.
func (e *sweepEngine) drain(b *survivorBuf) {
	c := e.ch.c
	res := e.res
	pairs := e.pl.Pairs
	var changes int64
	for j, pi := range b.pair {
		e1, e2 := b.e1[j], b.e2[j]
		c1 := chainFind(c, e1)
		c2 := chainFind(c, e2)
		if c1 == c2 {
			changes += compressPath(c, e1, c1)
			changes += compressPath(c, e2, c2)
			e.drops++
			continue
		}
		into := min(c1, c2)
		changes += compressPath(c, e1, into)
		changes += compressPath(c, e2, into)
		res.Levels++
		res.Merges = append(res.Merges, Merge{
			Level: res.Levels,
			A:     c1,
			B:     c2,
			Into:  into,
			Sim:   pairs[pi].Sim,
		})
	}
	e.ch.changes += changes
}

// chainFind is Chain.Find on the raw array.
func chainFind(c []int32, i int32) int32 {
	for c[i] != i {
		i = c[i]
	}
	return i
}

// compressPath rewrites every entry on the chain from i to root (writing
// root itself only if it does not already point there), reading each next
// pointer before overwriting it. It returns the number of rewrites. With
// root = the path's own terminal this is pure path compression; with root =
// the minimum of two clusters it is the MERGE write pass.
func compressPath(c []int32, i, root int32) int64 {
	var n int64
	for c[i] != root {
		next := c[i]
		c[i] = root
		i = next
		n++
	}
	return n
}
