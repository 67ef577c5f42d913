package core

import (
	"context"
	"fmt"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// This file exports the replay surface the incremental engine in
// internal/stream builds on: a checkpointable sweep (SweepResumeCtx over
// SweepState), the per-row similarity kernel (RowKernel), and the pair-list
// order primitives (CmpPairs, NewSortedPairList, VertexNorms). Everything
// here reuses the existing engines verbatim — the exports add state capture
// and single-row entry points, never new algorithmic paths — so outputs stay
// bitwise identical to the batch pipeline by construction.

// SweepState is a resumable checkpoint of the fine-grained sweep engine: the
// full engine state after the window ending at pair index Pos. Replaying the
// sorted pair list from Pos on a state-restored engine produces — bitwise —
// the merge stream, chain array, and counters of a from-scratch run, because
// the engine's entire behavior beyond Pos is a function of exactly the fields
// captured here plus the pairs at and above Pos (see SweepResumeCtx).
//
// A SweepState is immutable once captured: Chain and Merges are deep copies,
// and resuming copies them again, so one checkpoint can seed any number of
// replays.
type SweepState struct {
	// Pos is the pair index the engine stopped at. It is always a window
	// boundary: pairs below Pos are fully processed, pairs at and above it
	// untouched.
	Pos int
	// Chain is a deep copy of array C over edge ids.
	Chain []int32
	// Changes is the chain's rewrite counter at the checkpoint.
	Changes int64
	// Merges is a deep copy of the merge stream emitted so far.
	Merges []Merge
	// Levels and PairsProcessed mirror the Result fields at the checkpoint.
	Levels         int32
	PairsProcessed int64
	// OpsSinceFlatten is the periodic-flatten accumulator; carrying it keeps
	// the flatten schedule (and hence the rewrite counter) of a resumed run
	// identical to an uninterrupted one.
	OpsSinceFlatten int64
}

// captureState deep-copies the engine's resumable state at its current
// window boundary. A closed engine's boundary is the closing window's end:
// the ops retired past it change nothing but PairsProcessed, which is
// therefore captured without them.
func captureState(e *sweepEngine) SweepState {
	return SweepState{
		Pos:             e.wp,
		Chain:           append([]int32(nil), e.ch.c...),
		Changes:         e.ch.changes,
		Merges:          append([]Merge(nil), e.res.Merges...),
		Levels:          e.res.Levels,
		PairsProcessed:  e.res.PairsProcessed - e.tailOps,
		OpsSinceFlatten: e.opsSinceFlatten,
	}
}

// SweepResumeCtx runs the fine-grained sweep over a sorted pair list,
// optionally starting from a checkpoint and optionally emitting new
// checkpoints as it goes.
//
// With from == nil and save == nil it is SweepParallelCtx. With a non-nil
// from — captured by an earlier SweepResumeCtx over a pair list whose entries
// below from.Pos were identical — it restores the engine to the checkpoint
// and replays only pairs at and above from.Pos. The resumed run's output is
// bitwise identical to a from-scratch run over the current list: the engine's
// window cutter is a greedy pure function of op counts over the sorted order,
// so with an identical prefix every boundary below Pos recurs, and the
// engine's state at a boundary is exactly (chain, merges, counters,
// opsSinceFlatten) — all restored here. The reservation table needs no
// restoration: a fresh table is all zeros, every live reservation tag of
// round g exceeds g<<32 > 0, and both schedulers ignore tags below the
// current round's base.
//
// When save is non-nil it receives a checkpoint at every window boundary
// reached after at least saveEvery operations since the last one (saveEvery
// <= 0 disables intermediate checkpoints), plus a final checkpoint, flagged
// final, after the last window. The engine closes once its merges span the
// op graph (see closeIfSpanned), so no checkpoint is captured past the
// closing window: the final one sits at the closing window's end, or at
// len(pl.Pairs) for a list that never closes. Because the closing point is a
// function of the merges alone, a resume from it against a grown graph cuts
// exactly the windows of a from-scratch run. Checkpoints are deep copies;
// save may retain them.
//
// The pair list must be in list-L order already (its sorted flag set — see
// NewSortedPairList) or is sorted here. Cancellation and panic isolation
// match SweepParallelCtx: the context is polled at every window cut, and on
// error the partial result is discarded (checkpoints already delivered to
// save remain valid — they describe prefixes that were fully processed).
func SweepResumeCtx(ctx context.Context, g *graph.Graph, pl *PairList, from *SweepState, workers, saveEvery int, save func(st SweepState, final bool), rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	workers = par.Normalize(workers)
	end := rec.Phase("sweep")
	defer end()
	endSort := rec.Phase("sort")
	serr := pl.SortWorkersCtx(ctx, workers)
	endSort()
	if serr != nil {
		return nil, serr
	}
	endMerge := rec.Phase("merge")
	defer endMerge()

	n := len(pl.Pairs)
	e := &sweepEngine{g: g, pl: pl, workers: workers, ctx: ctx}
	e.init()
	pos := 0
	if from != nil {
		if from.Pos < 0 || from.Pos > n {
			return nil, fmt.Errorf("core: sweep checkpoint position %d outside pair list of %d", from.Pos, n)
		}
		if len(from.Chain) != g.NumEdges() {
			return nil, fmt.Errorf("core: sweep checkpoint chain has %d entries, graph has %d edges", len(from.Chain), g.NumEdges())
		}
		copy(e.ch.c, from.Chain)
		e.ch.changes = from.Changes
		e.res.Merges = append(e.res.Merges, from.Merges...)
		e.res.Levels = from.Levels
		e.res.PairsProcessed = from.PairsProcessed
		e.opsSinceFlatten = from.OpsSinceFlatten
		e.wp, e.wq = from.Pos, from.Pos
		pos = from.Pos
	}

	if save == nil || saveEvery <= 0 {
		if err := e.consume(n, true); err != nil {
			return nil, err
		}
	} else {
		// Feed the list in frontier increments of ~saveEvery operations;
		// consume's window cutter makes increment boundaries invisible to the
		// output, so this changes only where checkpoints become available.
		lastSaved := pos
		next := pos
		for next < n && !e.closed {
			ops := 0
			for next < n && ops < saveEvery {
				ops += len(pl.Pairs[next].Common)
				next++
			}
			if err := e.consume(next, next == n); err != nil {
				return nil, err
			}
			if !e.closed && e.wp > lastSaved && e.wp < n {
				save(captureState(e), false)
				lastSaved = e.wp
			}
		}
		// Retire a closed run's tail in one pass (and, for an empty replay
		// range, still run the final cut); a no-op otherwise.
		if err := e.consume(n, true); err != nil {
			return nil, err
		}
	}
	if save != nil {
		save(captureState(e), true)
	}
	recordSweepEngine(rec, e)
	return e.res, nil
}

// NewSortedPairList wraps pairs that are already in list-L order (CmpPairs
// ascending) into a PairList with its sorted flag set, so sweeps trust the
// order instead of re-sorting. The caller vouches for the order; an unsorted
// list produces an unspecified (but non-crashing) merge stream, exactly as if
// PairList.Pairs had been reordered without Invalidate.
func NewSortedPairList(pairs []Pair) *PairList {
	return &PairList{Pairs: pairs, sorted: true}
}

// CmpPairs exposes the list-L total order: non-increasing similarity, ties
// broken by (U, V) ascending. Splicing freshly computed rows into a
// maintained sorted list with this comparator reproduces exactly the order a
// batch sort would have produced.
func CmpPairs(a, b Pair) int { return cmpPairs(a, b) }

// VertexNorms recomputes the H1/H2 norm terms of Algorithm 1's pass 1 for
// vertices lo <= v < hi against the current graph, zeroing stale values
// first (the batch pass starts from fresh arrays and skips isolated
// vertices; an incremental caller's arrays carry old values). Entries
// outside [lo, hi) are untouched, which is what makes per-endpoint refresh
// after an edge arrival exact: an arrival changes H1/H2 of its two endpoints
// and of no other vertex.
func VertexNorms(g *graph.Graph, h1, h2 []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		h1[v], h2[v] = 0, 0
	}
	vertexNorms(g, h1, h2, lo, hi)
}

// RowKernel is a reusable single-row entry point to the wedge-major
// similarity kernel: Row(u) computes exactly the pairs the batch kernel
// emits for row u — same order (V ascending), bitwise-equal similarities,
// identical Common lists — because it runs the very same enumerate/emit
// sequence on the same per-row accumulator. A row's output depends only on
// the graph and the norm arrays, never on other rows, which is what makes
// affected-row recomputation equivalent to a full batch pass.
//
// A RowKernel holds O(|V|) scratch and is not safe for concurrent use; use
// one per goroutine.
type RowKernel struct {
	ra *rowAccum
	n  int
}

// NewRowKernel returns a kernel for graphs of up to n vertices.
func NewRowKernel(n int) *RowKernel {
	return &RowKernel{ra: newRowAccum(n), n: n}
}

// Grow re-sizes the scratch for graphs of up to n vertices; shrinking is a
// no-op.
func (rk *RowKernel) Grow(n int) {
	if n > rk.n {
		rk.ra = newRowAccum(n)
		rk.n = n
	}
}

// Row computes row u of map M: every pair (u, v) with v > u sharing a common
// neighbor with u, in V-ascending order, with freshly allocated Pair and
// Common storage (safe to retain and splice). h1/h2 must hold the pass-1
// norms of the current graph (see VertexNorms). A row with no pairs returns
// nil.
func (rk *RowKernel) Row(g *graph.Graph, u int, h1, h2 []float64) []Pair {
	if g.NumVertices() > rk.n {
		panic(fmt.Sprintf("core: RowKernel sized for %d vertices got graph with %d (call Grow)", rk.n, g.NumVertices()))
	}
	ra := rk.ra
	w := ra.enumerateRow(g, u)
	var pairs []Pair
	if w > 0 {
		commons := make([]int32, w)
		pairs = make([]Pair, len(ra.touched))
		ra.emitRow(u, h1, h2, pairs, commons)
	}
	ra.resetMarks(g, u)
	return pairs
}

// PairsTouching computes every pair of map M involving vertex d — both
// orientations of the row-major enumeration — under canonical (U, V) =
// (min, max), partner-ascending, with freshly allocated storage. Each
// returned pair is bitwise identical to the copy Row(min(U,V)) would emit:
// the wedge products are the same two weights multiplied (commutative), they
// are accumulated over the same common neighbors in the same ascending-k
// order whichever endpoint enumerates, and the diagonal and Tanimoto
// denominators are single commutative adds of the endpoint norms (see the
// FMA notes in enumerateRow). This is the incremental engine's kernel: the
// pairs an arrival at d can change are exactly the pairs involving d.
func (rk *RowKernel) PairsTouching(g *graph.Graph, d int, h1, h2 []float64) []Pair {
	if g.NumVertices() > rk.n {
		panic(fmt.Sprintf("core: RowKernel sized for %d vertices got graph with %d (call Grow)", rk.n, g.NumVertices()))
	}
	ra := rk.ra
	w := ra.enumerateRowAll(g, d)
	var pairs []Pair
	if w > 0 {
		commons := make([]int32, w)
		pairs = make([]Pair, len(ra.touched))
		ra.emitRow(d, h1, h2, pairs, commons)
		for i := range pairs {
			if pairs[i].U > pairs[i].V {
				pairs[i].U, pairs[i].V = pairs[i].V, pairs[i].U
			}
		}
	}
	ra.resetMarks(g, d)
	return pairs
}

// enumerateRowAll is enumerateRow without the v > u restriction: it logs the
// wedges of every partner of u, in the same ascending-k order per partner.
func (ra *rowAccum) enumerateRowAll(g *graph.Graph, u int) int {
	ra.touched = ra.touched[:0]
	ra.ks = ra.ks[:0]
	ra.vs = ra.vs[:0]
	uu := int32(u)
	for _, hk := range g.Neighbors(u) {
		k, wk := hk.To, hk.Weight
		ra.wTo[k] = wk
		for _, hv := range g.Neighbors(int(k)) {
			v := hv.To
			if v == uu {
				continue
			}
			if ra.cnt[v] == 0 {
				ra.touched = append(ra.touched, v)
			}
			ra.cnt[v]++
			// Two statements — see the FMA note in enumerateRow.
			prod := wk * hv.Weight
			ra.dot[v] += prod
			ra.ks = append(ra.ks, k)
			ra.vs = append(ra.vs, v)
		}
	}
	return len(ra.ks)
}
