package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Counter names recorded by the parallel fine-grained sweep.
const (
	// CtrSweepWindows counts merge-batch windows cut from the sorted list.
	CtrSweepWindows = "sweep.windows"
	// CtrSweepRounds counts conflict-free sub-batch rounds across windows.
	CtrSweepRounds = "sweep.rounds"
	// CtrSweepDeferrals counts operations pushed to a later round because a
	// cluster they touch was already reserved in the current one.
	CtrSweepDeferrals = "sweep.deferrals"
	// CtrSweepNoopDrops counts operations retired without a merge because
	// both edges already shared a cluster when they were scanned.
	CtrSweepNoopDrops = "sweep.noop_drops"
	// CtrSweepSerialDrains counts windows whose conflict-heavy residue was
	// finished by the exact serial drain instead of further rounds.
	CtrSweepSerialDrains = "sweep.serial_drains"
	// CtrSweepFlattens counts periodic whole-chain flatten passes.
	CtrSweepFlattens = "sweep.flattens"
	// CtrSweepCASRounds counts rounds scheduled through the lock-free
	// min-reservation path instead of the serial claim scan. Unlike the
	// counters above it is telemetry, not an invariant: the CAS path engages
	// only when the round is large enough AND more than one worker is
	// available, so the value is worker-dependent — but which operations it
	// selects, defers, or drops is not (see casRound).
	CtrSweepCASRounds = "sweep.cas_rounds"
	// CtrSweepTailOps counts operations retired by the closure pass: ops
	// after the window whose merges completed the op graph's spanning
	// forest. They are no-ops by construction, so they are counted in
	// CtrSweepNoopDrops as well.
	CtrSweepTailOps = "sweep.tail_ops"
)

// Engine tuning. Every threshold is a function of operation counts only —
// never of the worker count — so the engine's control flow (which operations
// are selected, deferred, dropped, or drained in which round) is identical
// for any number of workers. The merge stream's bitwise equality across
// worker counts follows by construction: a round's selection is a pure
// function of the (c1, c2) pairs of its pending ops — computed either by the
// serial claim scan or by the equivalent lock-free min-reservation pass (see
// casRound), which produce the same selected/deferred/dropped partition.
const (
	// sweepWindowOps is the target operation count of one merge batch.
	// Windows never split a vertex pair, so the last pair may overshoot.
	sweepWindowOps = 8192
	// sweepDrainOps is the pending-residue size below which a window is
	// finished by the serial drain: conflict-heavy tails retire ~1 op per
	// round, where barrier overhead would dominate.
	sweepDrainOps = 96
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

// SweepParallel runs Algorithm 2 multi-threaded over merge batches: the
// sorted pair list is cut into windows of incident-edge operations, each
// window is processed in conflict-free sub-batch rounds (deterministic
// reservations in serial-index order), and the selected operations of a
// round apply concurrently to one shared chain — their clusters are pairwise
// disjoint, so their writes are too. The pair list is sorted in place.
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
// The engine stops merging once the merge stream spans the op graph: after
// the window in which Levels reaches |E| minus the number of non-isolated
// components of g, every later op joins two edges already in one cluster,
// so the rest of the list is retired by one read-only edge-existence pass
// (see retire) instead of being resolved and scheduled.
func SweepParallel(g *graph.Graph, pl *PairList, workers int) (*Result, error) {
	return SweepParallelCtx(context.Background(), g, pl, workers, nil)
}

// SweepParallelCtx is SweepParallel with cooperative cancellation, panic
// isolation, and optional instrumentation: sort/merge phase timers plus the
// serial sweep's counters and the engine's window/round/deferral counters
// are recorded into rec. The context is checked at every op-count window
// cut (8192 incident operations), every 8192 ops of each closure-pass
// worker, and inside the parallel sort, so cancel latency is bounded by one
// window of merge work (or one sort round) for any worker count; on
// cancellation every pool drains before ctx.Err() is returned, so no
// goroutine outlives the call. A panic inside a worker surfaces as a
// *par.WorkerPanicError. The checks are pure reads — when ctx
// never cancels, the merge stream is bitwise identical to the serial Sweep.
// It is SweepResumeCtx without a checkpoint to start from or to save.
func SweepParallelCtx(ctx context.Context, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
	return SweepResumeCtx(ctx, g, pl, nil, workers, 0, nil, rec)
}

// recordSweepEngine records the counters shared by every engine-backed
// sweep: the serial sweep's op/rewrite/merge counters plus the engine's
// scheduling counters.
func recordSweepEngine(rec *obs.Recorder, e *sweepEngine) {
	if rec == nil {
		return
	}
	rec.Add(CtrSweepPairsProcessed, e.res.PairsProcessed)
	rec.Add(CtrSweepChainRewrites, e.res.Chain.Changes())
	rec.Add(CtrSweepMerges, int64(len(e.res.Merges)))
	rec.Add(CtrSweepWindows, e.windows)
	rec.Add(CtrSweepRounds, e.rounds)
	rec.Add(CtrSweepDeferrals, e.deferrals)
	rec.Add(CtrSweepNoopDrops, e.drops)
	rec.Add(CtrSweepSerialDrains, e.drains)
	rec.Add(CtrSweepFlattens, e.flattens)
	rec.Add(CtrSweepCASRounds, e.casRounds)
	rec.Add(CtrSweepTailOps, e.tailOps)
}

// sweepEngine holds the shared chain, the per-window operation buffers
// (reused across windows), and the cluster reservation table.
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

	// Survivor arrays: one entry per operation that was still live (edges in
	// different clusters) against the pre-window chain state. The 99%+ of
	// operations that are already no-ops before their window starts never
	// reach these — resolution drops them on the spot, which is exact
	// because cluster merging is monotone: edges sharing a cluster before
	// the window still share it at the op's serial position.
	sIdx   []int32       // survivor -> op index within the window
	e1, e2 []int32       // resolved incident edge ids, per survivor
	c1, c2 []int32       // cluster ids from the round's find phase
	evA    []int32       // merge operand A per survivor; -1 marks "no event"
	evB    []int32       // merge operand B per survivor
	pend   []int32       // survivors still pending in the current window
	next   []int32       // pending list under construction for the next round
	sel    []int32       // survivors selected by the current round's scan
	offs   []int32       // per-pair op offsets within the window
	wbuf   []survivorBuf // per-worker survivor staging buffers
	rbuf   []roundBuf    // per-worker CAS-round staging buffers
	parChg []int64       // per-worker change counts of the apply phase

	// resv is the per-cluster reservation table, shared by both round
	// schedulers. The serial claim scan tags a cluster with the round base
	// gen<<32; the CAS path tags it with base|opID, CASed downward so the
	// table converges to the minimum pending op id touching each cluster.
	// Tags from different rounds never collide: a later round's base exceeds
	// every tag (base or base|op) of any earlier round.
	resv []int64
	gen  int64 // current reservation generation (bumped per round)

	// Streaming window cursor: pairs [wp, wq) are accumulated into the
	// window under construction, carrying wops incident operations. The
	// monolithic run and the spilled read-back consumer share this state, so
	// window boundaries — a greedy, purely op-count-based function of the
	// sorted pair order — are identical whether the list arrives whole or in
	// sorted-bucket increments.
	wp, wq int
	wops   int

	opsSinceFlatten int64

	// forest is the op graph's spanning-forest size (see forestSize): no
	// sweep over g can emit more merges. Once Levels reaches it at a window
	// boundary the engine is closed: wp stays at that boundary, and pairs
	// from wp on are only checked for edge existence by retire, which
	// advances tp. rowOf, bits and words are its neighbor bitsets (see
	// buildRows), built when the engine closes.
	forest  int32
	closed  bool
	tp      int
	tailOps int64
	rowOf   []int32
	bits    []uint64
	words   int

	windows, rounds, deferrals, drops, drains, flattens, casRounds int64

	errMu sync.Mutex
	errOp int
	err   error
}

// survivorBuf stages one resolution worker's surviving operations. Workers
// cover contiguous, ascending op ranges, so concatenating the buffers in
// worker order restores serial op order.
type survivorBuf struct {
	idx    []int32
	e1, e2 []int32
	c1, c2 []int32
	drops  int64
}

func (b *survivorBuf) reset() {
	b.idx = b.idx[:0]
	b.e1, b.e2 = b.e1[:0], b.e2[:0]
	b.c1, b.c2 = b.c1[:0], b.c2[:0]
	b.drops = 0
}

// roundBuf stages one worker's output of a CAS round: the deferred ops of
// its contiguous pend range (concatenated in worker order to restore serial
// pend order) and its counter contributions.
type roundBuf struct {
	next          []int32
	chg           int64
	drops, defers int64
}

// init allocates the chain, the reservation table, the per-worker buffers
// and the merge stream, and builds the packed adjacency. It must run before
// the first consume call. The forest size bounds the merges, and a full
// sweep emits exactly that many, so the stream is allocated once at its
// final size.
func (e *sweepEngine) init() {
	m := e.g.NumEdges()
	e.ch = NewChain(m)
	e.forest = forestSize(e.g)
	e.res = &Result{Chain: e.ch, Merges: make([]Merge, 0, e.forest)}
	e.resv = make([]int64, m)
	e.parChg = make([]int64, e.workers)
	e.wbuf = make([]survivorBuf, e.workers)
	e.rbuf = make([]roundBuf, e.workers)
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
// Pairs below the frontier must be in their final sorted positions and must
// not change afterwards; the spilled read-back producer guarantees this by
// emitting a frontier only after the bucket below it is sorted and copied in
// place.
//
// Closure is checked at every window boundary (and on entry, which covers a
// forest of size zero and a restored checkpoint that had already closed).
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
			e.wops += len(pairs[e.wq].Common)
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
	return e.retire(frontier)
}

// closeIfSpanned closes the engine once the merge stream spans the op
// graph. It runs only at window boundaries, where wq == wp.
func (e *sweepEngine) closeIfSpanned() {
	if !e.closed && e.res.Levels >= e.forest {
		e.closed = true
		e.tp = e.wp
	}
}

// retired returns the pair index below which every pair is fully processed.
func (e *sweepEngine) retired() int {
	if e.closed {
		return e.tp
	}
	return e.wp
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
// emits their merge events in serial operation order. Only the survivors of
// resolution (live against the pre-window state) enter the round loop.
func (e *sweepEngine) window(p0, p1, w int) error {
	ns := e.resolve(p0, p1, w)
	if e.err != nil {
		return e.err
	}
	if cap(e.evA) < ns {
		e.evA = make([]int32, ns)
		e.evB = make([]int32, ns)
	}
	e.evA, e.evB = e.evA[:ns], e.evB[:ns]
	pend := e.pend[:0]
	for j := 0; j < ns; j++ {
		pend = append(pend, int32(j))
		e.evA[j] = -1
	}
	first := true
	for len(pend) > 0 {
		e.rounds++
		if len(pend) <= sweepDrainOps {
			e.drain(pend)
			e.drains++
			break
		}
		// Large rounds with real parallelism available go through the
		// lock-free min-reservation scheduler; small rounds (and 1-worker
		// runs) keep the serial claim scan, whose barrier-free passes win
		// below the fan-out floor. The two produce the same selection,
		// deferral order, drop count, and rewrite count (see casRound), so
		// the dispatch — though worker-dependent — cannot change the merge
		// stream or any invariant counter.
		if e.workers >= 2 && len(pend) >= sweepParMinOps {
			e.casRound(pend, first)
		} else {
			// Round 1's find is fused into resolution (the chain is
			// quiescent there and round 1's pre-round state is the
			// pre-window state).
			if !first {
				e.find(pend)
			}
			sel := e.scan(pend)
			e.apply(sel)
		}
		first = false
		pend, e.next = e.next, pend
	}
	e.pend = pend[:0]
	// Emission in op order restores the serial stream: an op selected in a
	// late round may precede (in serial index) one selected earlier, and the
	// disjoint-cluster reservation makes their applications commute. The
	// survivor list is sorted by op index, so a single cursor pairs each
	// event with its pair's similarity via the per-pair op offsets.
	res := e.res
	pairs := e.pl.Pairs
	cur := 0
	for pi := p0; pi < p1 && cur < ns; pi++ {
		sim := pairs[pi].Sim
		lim := e.offs[pi-p0+1]
		for cur < ns && e.sIdx[cur] < lim {
			a := e.evA[cur]
			if a < 0 {
				cur++
				continue
			}
			b := e.evB[cur]
			into := a
			if b < into {
				into = b
			}
			res.Levels++
			res.Merges = append(res.Merges, Merge{
				Level: res.Levels,
				A:     a,
				B:     b,
				Into:  into,
				Sim:   sim,
			})
			cur++
		}
	}
	return nil
}

// resolve computes the window's operations — for every pair and every common
// neighbor k, the ids of edges (U, k) and (V, k) plus their pre-window
// cluster terminals — and keeps only the survivors: ops whose edges are in
// different clusters. Pairs partition contiguously across workers by op
// offsets; within a pair the sorted Common list is merged against the sorted
// packed adjacency with a galloping scan, replacing the serial sweep's two
// binary searches per operation. Returns the survivor count after
// concatenating the worker buffers in op order into the shared arrays.
func (e *sweepEngine) resolve(p0, p1, w int) int {
	np := p1 - p0
	used := 0
	if w < sweepParMinOps || e.workers < 2 {
		// Single-worker resolution writes survivors straight into the shared
		// arrays — the staging buffers exist only to keep concurrent workers
		// apart, and skipping the concatenation copy is a measurable win on
		// the windows-dominated serial path.
		b := survivorBuf{idx: e.sIdx[:0], e1: e.e1[:0], e2: e.e2[:0], c1: e.c1[:0], c2: e.c2[:0]}
		e.resolveRange(p0, p0, p1, &b)
		e.drops += b.drops
		e.sIdx, e.e1, e.e2, e.c1, e.c2 = b.idx, b.e1, b.e2, b.c1, b.c2
		return len(e.sIdx)
	}
	// Precompute the balanced pair ranges, then fan out through par.Run
	// so a panic inside resolution is isolated like every other pool.
	type resolveRange struct{ lo, hi int }
	var ranges []resolveRange
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
		e.wbuf[used].reset()
		ranges = append(ranges, resolveRange{lo: p0 + prev, hi: p0 + end})
		used++
		prev = end
	}
	par.Run(len(ranges), func(t int, _ func() bool) {
		e.resolveRange(p0, ranges[t].lo, ranges[t].hi, &e.wbuf[t])
	})
	e.sIdx = e.sIdx[:0]
	e.e1, e.e2 = e.e1[:0], e.e2[:0]
	e.c1, e.c2 = e.c1[:0], e.c2[:0]
	for i := 0; i < used; i++ {
		b := &e.wbuf[i]
		e.drops += b.drops
		e.sIdx = append(e.sIdx, b.idx...)
		e.e1 = append(e.e1, b.e1...)
		e.e2 = append(e.e2, b.e2...)
		e.c1 = append(e.c1, b.c1...)
		e.c2 = append(e.c2, b.c2...)
	}
	return len(e.sIdx)
}

// buildCSR flattens the adjacency into the packed resolution layout.
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
}

func (e *sweepEngine) resolveRange(p0, lo, hi int, b *survivorBuf) {
	pairs := e.pl.Pairs
	adjOff, adjTE := e.adjOff, e.adjTE
	c := e.ch.c
	drops := int64(0)
	off := int(e.offs[lo-p0])
	for pi := lo; pi < hi; pi++ {
		pr := &pairs[pi]
		tu := adjTE[adjOff[pr.U]:adjOff[pr.U+1]]
		tv := adjTE[adjOff[pr.V]:adjOff[pr.V+1]]
		iu, iv := 0, 0
		for _, k := range pr.Common {
			// The gallop is inlined by hand on both sides: at two calls
			// per incident pair this is the innermost kernel of the whole
			// sweep, and the call overhead alone is measurable.
			key := uint64(uint32(k)) << 32
			for iu < len(tu) && tu[iu]>>32 < uint64(uint32(k)) {
				step := 1
				for iu+step < len(tu) && tu[iu+step]>>32 < uint64(uint32(k)) {
					iu += step
					step <<= 1
				}
				glo, ghi := iu+1, iu+step
				if ghi > len(tu) {
					ghi = len(tu)
				}
				for glo < ghi {
					mid := int(uint(glo+ghi) >> 1)
					if tu[mid]>>32 < uint64(uint32(k)) {
						glo = mid + 1
					} else {
						ghi = mid
					}
				}
				iu = glo
				break
			}
			if iu >= len(tu) || tu[iu]&^uint64(1<<32-1) != key {
				e.fail(pi, off, k)
				return
			}
			e1 := int32(uint32(tu[iu]))
			for iv < len(tv) && tv[iv]>>32 < uint64(uint32(k)) {
				step := 1
				for iv+step < len(tv) && tv[iv+step]>>32 < uint64(uint32(k)) {
					iv += step
					step <<= 1
				}
				glo, ghi := iv+1, iv+step
				if ghi > len(tv) {
					ghi = len(tv)
				}
				for glo < ghi {
					mid := int(uint(glo+ghi) >> 1)
					if tv[mid]>>32 < uint64(uint32(k)) {
						glo = mid + 1
					} else {
						ghi = mid
					}
				}
				iv = glo
				break
			}
			if iv >= len(tv) || tv[iv]&^uint64(1<<32-1) != key {
				e.fail(pi, off, k)
				return
			}
			e2 := int32(uint32(tv[iv]))
			// Fused round-1 find, while e1/e2 are still in registers. Equal
			// terminals against the pre-window state mean the op is a no-op
			// at its serial position too (merging is monotone), so it is
			// retired here and never enters the round machinery.
			x := e1
			for c[x] != x {
				x = c[x]
			}
			y := e2
			for c[y] != y {
				y = c[y]
			}
			if x == y {
				drops++
			} else {
				b.idx = append(b.idx, int32(off))
				b.e1 = append(b.e1, e1)
				b.e2 = append(b.e2, e2)
				b.c1 = append(b.c1, x)
				b.c2 = append(b.c2, y)
			}
			off++
			iu++
			iv++
		}
	}
	b.drops = drops
}

// fail records a resolution failure, keeping the first in serial op order so
// the reported error matches the serial sweep's.
func (e *sweepEngine) fail(pi, op int, k int32) {
	e.errMu.Lock()
	if e.err == nil || op < e.errOp {
		e.errOp = op
		e.err = missingEdgeError(&e.pl.Pairs[pi], k)
	}
	e.errMu.Unlock()
}

// missingEdgeError is the serial sweep's error for an op whose edge (U, k)
// or (V, k) is not in the graph.
func missingEdgeError(pr *Pair, k int32) error {
	return fmt.Errorf("core: pair (%d,%d) common neighbor %d has no incident edges in graph", pr.U, pr.V, k)
}

// find computes the pre-round cluster ids of every pending op. It is
// read-only on the shared chain, so the fan-out is race-free.
func (e *sweepEngine) find(pend []int32) {
	c := e.ch.c
	body := func(lo, hi int) {
		for x := lo; x < hi; x++ {
			j := pend[x]
			i := e.e1[j]
			for c[i] != i {
				i = c[i]
			}
			e.c1[j] = i
			i = e.e2[j]
			for c[i] != i {
				i = c[i]
			}
			e.c2[j] = i
		}
	}
	if len(pend) < sweepParMinOps || e.workers < 2 {
		body(0, len(pend))
		return
	}
	par.Do(len(pend), e.workers, func(_, lo, hi int) { body(lo, hi) })
}

// scan is the serial heart of a round: walking pending ops in serial-index
// order, it drops no-ops, reserves the two clusters of every live op, and
// selects the ops whose clusters were both free. A conflicting op is
// deferred to the next round but still reserves its clusters — that is the
// per-cluster FIFO (by serial index) that makes every selected op's operand
// pair equal what the serial sweep would have computed at that op's turn:
// no later op can touch a cluster while an earlier op still has business
// with it, and merges of disjoint clusters commute.
//
// The scan also path-compresses both find paths to their current terminals.
// Compression here is safe (the scan runs alone between the find and apply
// barriers) and partition-preserving, and because it happens in the serial
// scan it is identical for any worker count. The bulk of the chain — edges
// whose ops were retired during resolution and never reach a scan — is kept
// flat by the periodic whole-chain flatten instead (see sweepFlattenOps).
func (e *sweepEngine) scan(pend []int32) []int32 {
	e.gen++
	base := e.gen << 32
	c := e.ch.c
	resv := e.resv
	sel := e.sel[:0]
	nxt := e.next[:0]
	var changes int64
	for _, j := range pend {
		c1, c2 := e.c1[j], e.c2[j]
		changes += compressPath(c, e.e1[j], c1)
		changes += compressPath(c, e.e2[j], c2)
		if c1 == c2 {
			e.drops++
			continue
		}
		if resv[c1] == base || resv[c2] == base {
			resv[c1], resv[c2] = base, base
			nxt = append(nxt, j)
			e.deferrals++
			continue
		}
		resv[c1], resv[c2] = base, base
		e.evA[j], e.evB[j] = c1, c2
		sel = append(sel, j)
	}
	e.ch.changes += changes
	e.sel = sel
	e.next = nxt
	return sel
}

// apply performs the selected merges on the shared chain. Selection
// guarantees pairwise-disjoint cluster pairs, chain pointers never leave
// their own cluster, and the scan already compressed both paths — so each
// op rewrites at most the four entries {e1, c1, e2, c2}, all within its own
// two clusters, and concurrent ops touch disjoint memory.
func (e *sweepEngine) apply(sel []int32) {
	if len(sel) == 0 {
		return
	}
	c := e.ch.c
	body := func(lo, hi int) int64 {
		var n int64
		for x := lo; x < hi; x++ {
			j := sel[x]
			cmin := e.evA[j]
			if b := e.evB[j]; b < cmin {
				cmin = b
			}
			n += compressPath(c, e.e1[j], cmin)
			n += compressPath(c, e.e2[j], cmin)
		}
		return n
	}
	if len(sel) < sweepParMinOps/8 || e.workers < 2 {
		e.ch.changes += body(0, len(sel))
		return
	}
	par.Do(len(sel), e.workers, func(t, lo, hi int) { e.parChg[t] = body(lo, hi) })
	for t := range e.parChg {
		e.ch.changes += e.parChg[t]
		e.parChg[t] = 0
	}
}

// casRound schedules one round through the lock-free min-reservation path
// (gbbs unite_variants style) instead of the serial claim scan. Two barrier-
// separated parallel passes over the pending ops replace the scan's single
// serial walk:
//
// Pass A (find + reserve): every worker computes the pre-round cluster pair
// (c1, c2) of each op in its contiguous pend range (fused with atomic path
// compression to the op's own terminals — safe because no merges happen
// before the barrier, so terminals are fixed points all pass long) and, for
// live ops, CASes the op's id into resv[c1] and resv[c2], keeping the
// MINIMUM id per cluster (reserveMin).
//
// Pass B (select + apply): op j wins iff resv[c1] == resv[c2] == base|j,
// i.e. j is the minimum live op id touching both its clusters. Winners merge
// in place (their cluster pairs are pairwise disjoint by construction — each
// reserved cluster names exactly one minimum); losers go to the per-worker
// deferral list, concatenated in worker order to restore serial pend order.
//
// Equivalence with the serial scan: the scan walks ops in ascending serial
// index and selects an op iff neither cluster was reserved earlier in the
// walk — which holds iff no SMALLER live op id touches either cluster, i.e.
// iff the op is the minimum live id on both. That is exactly the CAS winner
// condition, so selection, deferral order (pend order is preserved), drop
// set, and therefore the merge stream are identical. The rewrite counter
// also matches: per round, both schedulers rewrite exactly the chain entries
// that do not yet point at their round-start terminal (each counted once —
// compressPathAtomic credits only the successful CASer of a transition), and
// winners' merge writes start from identically-compressed paths.
func (e *sweepEngine) casRound(pend []int32, first bool) {
	e.casRounds++
	e.gen++
	base := e.gen << 32
	c := e.ch.c
	resv := e.resv
	used := e.workers
	if used > len(pend) {
		used = len(pend)
	}
	par.Do(len(pend), e.workers, func(t, lo, hi int) {
		var chg int64
		for x := lo; x < hi; x++ {
			j := pend[x]
			var c1, c2 int32
			if first {
				// Round 1's find was fused into resolution against the
				// quiescent pre-window chain.
				c1, c2 = e.c1[j], e.c2[j]
			} else {
				c1 = findAtomic(c, e.e1[j])
				c2 = findAtomic(c, e.e2[j])
				e.c1[j], e.c2[j] = c1, c2
			}
			chg += compressPathAtomic(c, e.e1[j], c1)
			chg += compressPathAtomic(c, e.e2[j], c2)
			if c1 != c2 {
				tag := base | int64(uint32(j))
				reserveMin(resv, c1, base, tag)
				reserveMin(resv, c2, base, tag)
			}
		}
		e.rbuf[t].chg = chg
	})
	// Barrier: par.Do joined, so every reservation and compression write
	// happens-before every pass-B read; plain loads are race-free below.
	par.Do(len(pend), e.workers, func(t, lo, hi int) {
		b := &e.rbuf[t]
		b.next = b.next[:0]
		var chg, drops, defers int64
		for x := lo; x < hi; x++ {
			j := pend[x]
			c1, c2 := e.c1[j], e.c2[j]
			if c1 == c2 {
				drops++
				continue
			}
			tag := base | int64(uint32(j))
			if resv[c1] == tag && resv[c2] == tag {
				cmin := c1
				if c2 < cmin {
					cmin = c2
				}
				chg += compressPath(c, e.e1[j], cmin)
				chg += compressPath(c, e.e2[j], cmin)
				e.evA[j], e.evB[j] = c1, c2
			} else {
				b.next = append(b.next, j)
				defers++
			}
		}
		b.chg += chg
		b.drops, b.defers = drops, defers
	})
	nxt := e.next[:0]
	for t := 0; t < used; t++ {
		b := &e.rbuf[t]
		e.ch.changes += b.chg
		e.drops += b.drops
		e.deferrals += b.defers
		nxt = append(nxt, b.next...)
		b.chg, b.drops, b.defers = 0, 0, 0
	}
	e.next = nxt
}

// findAtomic walks the chain to its terminal through atomic loads. It is
// safe concurrent with compressPathAtomic: compression only rewrites entries
// to their (fixed) terminals, so every value read is a valid next hop and the
// walk still converges — typically faster, because peers shortcut the path.
func findAtomic(c []int32, i int32) int32 {
	for {
		v := atomic.LoadInt32(&c[i])
		if v == i {
			return i
		}
		i = v
	}
}

// compressPathAtomic rewrites the chain from i toward root (i's terminal)
// with CAS, returning the number of transitions it won. Concurrent
// compressions of overlapping paths write the same values (a path has one
// terminal), so a failed CAS means a peer already did this hop: the loop
// re-reads and either stops (entry now points at root) or continues from the
// still-valid next pointer. Each entry's single non-root -> root transition
// is credited to exactly one worker, making the summed count equal the
// serial scan's rewrite count for the same round.
func compressPathAtomic(c []int32, i, root int32) int64 {
	var n int64
	for i != root {
		v := atomic.LoadInt32(&c[i])
		if v == root {
			return n
		}
		if atomic.CompareAndSwapInt32(&c[i], v, root) {
			n++
			i = v
		}
	}
	return n
}

// reserveMin CASes tag = base|opID into resv[cl], keeping the minimum: it
// yields if the table already holds a tag from this round (cur >= base) that
// is no larger than ours. Tags of earlier rounds (and the zero value) are
// always below base, so they lose to any current-round tag.
func reserveMin(resv []int64, cl int32, base, tag int64) {
	for {
		cur := atomic.LoadInt64(&resv[cl])
		if cur >= base && cur <= tag {
			return
		}
		if atomic.CompareAndSwapInt64(&resv[cl], cur, tag) {
			return
		}
	}
}

// drain retires a window's residue with exact serial semantics: find, merge,
// record — one op at a time, in serial-index order. Its trigger is a pure
// op-count threshold, so whether a window drains is worker-independent.
func (e *sweepEngine) drain(pend []int32) {
	c := e.ch.c
	var changes int64
	for _, j := range pend {
		c1 := chainFind(c, e.e1[j])
		c2 := chainFind(c, e.e2[j])
		if c1 == c2 {
			changes += compressPath(c, e.e1[j], c1)
			changes += compressPath(c, e.e2[j], c2)
			e.drops++
			continue
		}
		cmin := c1
		if c2 < cmin {
			cmin = c2
		}
		changes += compressPath(c, e.e1[j], cmin)
		changes += compressPath(c, e.e2[j], cmin)
		e.evA[j], e.evB[j] = c1, c2
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
