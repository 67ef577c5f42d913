package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Wedge-major (Gustavson/SPA) implementation of Algorithm 1.
//
// The legacy implementation (SimilarityLegacy, kept as the test oracle) is
// vertex-major over the *common neighbor*: for every vertex v, each ordered
// neighbor pair (vj, vk) of v contributes to map-M key (vj, vk) through a
// global hash-map accumulator. That funnels every one of the K2 wedge
// contributions through a map lookup and a linked-list append, and a
// parallel version would need a hierarchical merge of per-worker maps.
//
// The wedge-major kernel instead groups work by the *smaller endpoint* u of
// each map key: for every neighbor k of u and every neighbor v > u of k,
// the wedge (u, k, v) contributes w_uk·w_kv and one common neighbor to pair
// (u, v). All contributions to row u therefore land in a per-row sparse
// accumulator — dense scratch arrays of size |V| with a touched-list reset
// in O(row) — exactly Gustavson's sparse-matrix row accumulation. Rows
// partition disjointly across workers, so the parallel path needs no hash
// map and no merge phase at all: a count pass sizes a CSR-style layout
// (per-row pair offsets), and a fill pass writes every row into its
// precomputed slots. A pair keeps only its common-neighbor count N, never
// the neighbors themselves (the sweeps regenerate them from the adjacency,
// see AppendOps), so the kernel writes 24 bytes per pair and nothing per
// wedge. The diagonal (H1) term of pass 3 is applied inline by each row's
// owner, so no pass rescans the edge list.
//
// For a fixed pair (u, v) both implementations accumulate contributions in
// ascending order of the common neighbor and apply the diagonal term last,
// so similarities are bitwise identical to the legacy serial kernel, for
// any worker count.

// rowAccum is the per-worker sparse accumulator (SPA). The dense arrays are
// indexed by candidate far endpoint v and are valid only for entries on the
// touched list; every row resets exactly the entries it dirtied.
type rowAccum struct {
	dot     []float64 // accumulated inner product per candidate v
	cnt     []int32   // common-neighbor count per candidate v
	wTo     []float64 // weight of edge (u, v) for v adjacent to the row owner
	touched []int32   // candidate v's touched this row, first-touch order
}

func newRowAccum(n int) *rowAccum {
	return &rowAccum{
		dot: make([]float64, n),
		cnt: make([]int32, n),
		wTo: make([]float64, n),
	}
}

// firstAfter returns the index of the first neighbor with id greater than u.
// Adjacency lists are sorted by To, so the suffix from this index holds
// exactly the far endpoints v > u.
func firstAfter(nb []graph.Half, u int32) int {
	lo, hi := 0, len(nb)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nb[m].To <= u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// countRow enumerates row u's wedges counting distinct pairs, leaving the
// scratch clean. It is the cheap sizing pass of the parallel kernel: no dot
// accumulation.
func (ra *rowAccum) countRow(g *graph.Graph, u int) int32 {
	ra.countCommon(g, u)
	for _, v := range ra.touched {
		ra.cnt[v] = 0
	}
	return int32(len(ra.touched))
}

// countCommon enumerates row u's wedges into cnt and the touched list only:
// afterwards cnt[v] = |N(u) ∩ N(v)| for every v > u on the touched list.
// The caller resets cnt over the touched list.
func (ra *rowAccum) countCommon(g *graph.Graph, u int) {
	ra.touched = ra.touched[:0]
	uu := int32(u)
	for _, hk := range g.Neighbors(u) {
		nb := g.Neighbors(int(hk.To))
		for _, hv := range nb[firstAfter(nb, uu):] {
			v := hv.To
			if ra.cnt[v] == 0 {
				ra.touched = append(ra.touched, v)
			}
			ra.cnt[v]++
		}
	}
}

// enumerateRow enumerates the wedges of row u into the scratch — dot
// accumulation, common-neighbor counts, the touched list — and marks wTo for
// u's neighbors (the inline diagonal term). The caller must follow with
// emitRow, which consumes and resets the scratch. It returns the row's
// distinct-pair count.
func (ra *rowAccum) enumerateRow(g *graph.Graph, u int) int {
	ra.touched = ra.touched[:0]
	uu := int32(u)
	for _, hk := range g.Neighbors(u) {
		k, wk := hk.To, hk.Weight
		ra.wTo[k] = wk
		nb := g.Neighbors(int(k))
		for _, hv := range nb[firstAfter(nb, uu):] {
			v := hv.To
			if ra.cnt[v] == 0 {
				ra.touched = append(ra.touched, v)
			}
			ra.cnt[v]++
			// Two statements so the compiler cannot fuse the multiply-add:
			// fusion would round differently from the legacy kernel on FMA
			// targets and break bitwise equality.
			prod := wk * hv.Weight
			ra.dot[v] += prod
		}
	}
	return len(ra.touched)
}

// emitRow finishes row u after enumerateRow: it orders the row's pairs by v
// ascending, applies the diagonal term for candidates adjacent to u,
// computes the Tanimoto similarity, writes the row's pairs with their
// common-neighbor counts into pairs (len = the row's distinct-pair count),
// and resets the scratch.
func (ra *rowAccum) emitRow(u int, h1, h2 []float64, pairs []Pair) {
	slices.Sort(ra.touched)
	uu := int32(u)
	h1u, h2u := h1[u], h2[u]
	for i, v := range ra.touched {
		d := ra.dot[v]
		if w := ra.wTo[v]; w != 0 {
			// Separate statement: see the FMA note in enumerateRow.
			diag := (h1u + h1[v]) * w
			d += diag
		}
		pairs[i] = Pair{
			U:   uu,
			V:   v,
			Sim: d / (h2u + h2[v] - d),
			N:   ra.cnt[v],
		}
		ra.dot[v] = 0
		ra.cnt[v] = 0
	}
}

// resetMarks clears the wTo marks enumerateRow left for u's neighbors.
func (ra *rowAccum) resetMarks(g *graph.Graph, u int) {
	for _, hk := range g.Neighbors(u) {
		ra.wTo[hk.To] = 0
	}
}

// similarityWedgeCtx is the serial wedge-major kernel with cooperative
// cancellation: the context is checked every wedgeRowBlock rows, matching the
// parallel kernel's claim granularity.
func similarityWedgeCtx(ctx context.Context, g *graph.Graph, rec *obs.Recorder) (*PairList, error) {
	end := rec.Phase("similarity")
	defer end()
	n := g.NumVertices()
	h1 := make([]float64, n)
	h2 := make([]float64, n)
	endPass := rec.Phase("pass1-norms")
	vertexNorms(g, h1, h2, 0, n)
	endPass()

	endPass = rec.Phase("pass2-wedge-rows")
	defer endPass()
	ra := newRowAccum(n)
	pairs := make([]Pair, 0, g.NumEdges())
	var rows int64
	for u := 0; u < n; u++ {
		if u%wedgeRowBlock == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if need := ra.enumerateRow(g, u); need > 0 {
			rows++
			base := len(pairs)
			pairs = slices.Grow(pairs, need)[:base+need]
			ra.emitRow(u, h1, h2, pairs[base:])
		}
		ra.resetMarks(g, u)
	}

	pl := &PairList{Pairs: pairs}
	recordPairListStats(rec, pl)
	rec.Add(CtrSimilarityWedgeRows, rows)
	return pl, nil
}

// wedgeRowBlock is the dynamic-scheduling granule of both parallel passes:
// workers claim contiguous row blocks off an atomic cursor, so hub-heavy
// prefixes cannot serialize the sweep behind one unlucky static partition.
const wedgeRowBlock = 256

// SimilarityCtx is the cancellable, panic-isolated entry point of
// Algorithm 1: SimilarityParallel with cooperative cancellation and optional
// instrumentation (per-pass phase timers and the K1/K2 counters). The
// context is checked at every row-block claim (wedgeRowBlock rows), in the
// serial path as in the parallel one, so cancel latency is bounded by one
// block of rows per worker. On cancellation it returns ctx.Err() and the partial output is
// discarded; a panic inside the kernel surfaces as a *par.WorkerPanicError.
func SimilarityCtx(ctx context.Context, g *graph.Graph, workers int, rec *obs.Recorder) (pl *PairList, err error) {
	defer par.RecoverPanicError(&err)
	workers = par.Normalize(workers)
	if workers < 2 {
		return similarityWedgeCtx(ctx, g, rec)
	}
	return similarityWedgeParallelCtx(ctx, g, workers, rec)
}

// similarityWedgeParallelCtx is the parallel wedge-major kernel. Fan-outs run
// through par.Run (panic isolation); the dynamic row cursor of passes 2 and 3
// doubles as the cancellation point — workers re-check the context at every
// block claim and stop claiming when it is canceled or a sibling panicked.
func similarityWedgeParallelCtx(ctx context.Context, g *graph.Graph, workers int, rec *obs.Recorder) (*PairList, error) {
	workers = par.Normalize(workers)
	if workers < 2 {
		return similarityWedgeCtx(ctx, g, rec)
	}
	end := rec.Phase("similarity")
	defer end()
	n := g.NumVertices()
	h1 := make([]float64, n)
	h2 := make([]float64, n)

	// Pass 1: vertex norms over contiguous blocks (disjoint writes).
	endPass := rec.Phase("pass1-norms")
	par.Do(n, workers, func(_, lo, hi int) {
		vertexNorms(g, h1, h2, lo, hi)
	})
	endPass()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per-worker scratch, shared by both passes.
	accs := make([]*rowAccum, workers)
	for t := range accs {
		accs[t] = newRowAccum(n)
	}

	// Pass 2 (count): per-row distinct-pair counts.
	endPass = rec.Phase("pass2-wedge-count")
	rowPairs := make([]int32, n)
	var cursor atomic.Int64
	par.Run(workers, func(t int, aborted func() bool) {
		ra := accs[t]
		for {
			if aborted() || ctx.Err() != nil {
				return
			}
			lo := int(cursor.Add(wedgeRowBlock)) - wedgeRowBlock
			if lo >= n {
				return
			}
			hi := lo + wedgeRowBlock
			if hi > n {
				hi = n
			}
			for u := lo; u < hi; u++ {
				rowPairs[u] = ra.countRow(g, u)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		endPass()
		return nil, err
	}

	// CSR offsets (serial O(|V|) prefix sums).
	pairOff := make([]int64, n+1)
	var rows int64
	for u := 0; u < n; u++ {
		pairOff[u+1] = pairOff[u] + int64(rowPairs[u])
		if rowPairs[u] > 0 {
			rows++
		}
	}
	endPass()

	// Pass 3 (fill): every row writes its precomputed slots; the diagonal
	// term is applied inline by the row owner, so no edge rescan exists.
	endPass = rec.Phase("pass3-wedge-fill")
	pairs := make([]Pair, pairOff[n])
	cursor.Store(0)
	par.Run(workers, func(t int, aborted func() bool) {
		ra := accs[t]
		for {
			if aborted() || ctx.Err() != nil {
				return
			}
			lo := int(cursor.Add(wedgeRowBlock)) - wedgeRowBlock
			if lo >= n {
				return
			}
			hi := lo + wedgeRowBlock
			if hi > n {
				hi = n
			}
			for u := lo; u < hi; u++ {
				if np := ra.enumerateRow(g, u); np != int(rowPairs[u]) {
					panic(fmt.Sprintf("core: wedge fill pass disagrees with count pass at row %d (%d/%d pairs)",
						u, np, rowPairs[u]))
				} else if np > 0 {
					ra.emitRow(u, h1, h2, pairs[pairOff[u]:pairOff[u+1]])
				}
				ra.resetMarks(g, u)
			}
		}
	})
	endPass()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	pl := &PairList{Pairs: pairs}
	recordPairListStats(rec, pl)
	rec.Add(CtrSimilarityWedgeRows, rows)
	return pl, nil
}
