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
// the wedge (u, k, v) contributes w_uk·w_kv and common neighbor k to pair
// (u, v). All contributions to row u therefore land in a per-row sparse
// accumulator — dense scratch arrays of size |V| with a touched-list reset
// in O(row) — exactly Gustavson's sparse-matrix row accumulation. Rows
// partition disjointly across workers, so the parallel path needs no hash
// map, no link arena, and no merge phase at all: a count pass sizes a
// CSR-style layout (per-row pair and wedge offsets), and a fill pass writes
// every row into its precomputed slots. The diagonal (H1) term of pass 3 is
// applied inline by each row's owner, so no pass rescans the edge list.
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
	pos     []int64   // scatter cursor into the row's common region
	wTo     []float64 // weight of edge (u, v) for v adjacent to the row owner
	touched []int32   // candidate v's touched this row, first-touch order
	ks      []int32   // wedge centers k, in enumeration (ascending-k) order
	vs      []int32   // wedge far endpoints v, parallel to ks
}

func newRowAccum(n int) *rowAccum {
	return &rowAccum{
		dot: make([]float64, n),
		cnt: make([]int32, n),
		pos: make([]int64, n),
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

// countRow enumerates row u's wedges counting distinct pairs and total
// wedges, leaving the scratch clean. It is the cheap sizing pass of the
// parallel kernel: no dot accumulation, no wedge recording.
func (ra *rowAccum) countRow(g *graph.Graph, u int) (pairs int32, wedges int64) {
	ra.touched = ra.touched[:0]
	uu := int32(u)
	for _, hk := range g.Neighbors(u) {
		nb := g.Neighbors(int(hk.To))
		suffix := nb[firstAfter(nb, uu):]
		wedges += int64(len(suffix))
		for i := range suffix {
			v := suffix[i].To
			if ra.cnt[v] == 0 {
				ra.touched = append(ra.touched, v)
				ra.cnt[v] = 1
			}
		}
	}
	pairs = int32(len(ra.touched))
	for _, v := range ra.touched {
		ra.cnt[v] = 0
	}
	return pairs, wedges
}

// enumerateRow enumerates the wedges of row u into the scratch — dot
// accumulation, common-neighbor counts, the touched list, the (k, v) wedge
// log — and marks wTo for u's neighbors (the inline diagonal term). The
// caller must follow with emitRow, which consumes and resets the scratch.
// It returns the row's wedge count (the length of the common arena region
// the row needs).
func (ra *rowAccum) enumerateRow(g *graph.Graph, u int) int {
	ra.touched = ra.touched[:0]
	ra.ks = ra.ks[:0]
	ra.vs = ra.vs[:0]
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
			ra.ks = append(ra.ks, k)
			ra.vs = append(ra.vs, v)
		}
	}
	return len(ra.ks)
}

// emitRow finishes row u after enumerateRow: it orders the row's pairs by v
// ascending, scatters the common-neighbor lists into commons (len = the
// row's wedge count; lists come out ascending because wedges were logged
// with ascending k), applies the diagonal term for candidates adjacent to
// u, computes the Tanimoto similarity, writes the row's pairs into pairs
// (len = the row's distinct-pair count), and resets the scratch. The
// emitted Common slices alias commons.
func (ra *rowAccum) emitRow(u int, h1, h2 []float64, pairs []Pair, commons []int32) {
	slices.Sort(ra.touched)
	var off int64
	for _, v := range ra.touched {
		ra.pos[v] = off
		off += int64(ra.cnt[v])
	}
	for i, v := range ra.vs {
		commons[ra.pos[v]] = ra.ks[i]
		ra.pos[v]++
	}
	uu := int32(u)
	h1u, h2u := h1[u], h2[u]
	var start int64
	for i, v := range ra.touched {
		d := ra.dot[v]
		if w := ra.wTo[v]; w != 0 {
			// Separate statement: see the FMA note in enumerateRow.
			diag := (h1u + h1[v]) * w
			d += diag
		}
		n := int64(ra.cnt[v])
		end := start + n
		pairs[i] = Pair{
			U:      uu,
			V:      v,
			Sim:    d / (h2u + h2[v] - d),
			Common: commons[start:end:end],
		}
		start = end
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

// arenaChunks is a grow-only arena for the serial kernel's common-neighbor
// lists. Allocations never move once handed out — growth appends a fresh
// chunk instead of reallocating — so Pair.Common slices stay valid while
// the arena keeps growing, without a sizing pre-pass.
type arenaChunks struct {
	cur       []int32
	chunkSize int
}

func (a *arenaChunks) alloc(n int) []int32 {
	if cap(a.cur)-len(a.cur) < n {
		size := a.chunkSize
		if n > size {
			size = n
		}
		a.cur = make([]int32, 0, size)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	return a.cur[lo : lo+n : lo+n]
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
	chunk := 4 * g.NumEdges()
	if chunk < 1024 {
		chunk = 1024
	}
	arena := &arenaChunks{chunkSize: chunk}
	pairs := make([]Pair, 0, g.NumEdges())
	var rows int64
	for u := 0; u < n; u++ {
		if u%wedgeRowBlock == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		w := ra.enumerateRow(g, u)
		if w > 0 {
			rows++
			commons := arena.alloc(w)
			base := len(pairs)
			need := len(ra.touched)
			pairs = slices.Grow(pairs, need)[:base+need]
			ra.emitRow(u, h1, h2, pairs[base:], commons)
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

	// Pass 2 (count): per-row distinct-pair and wedge counts.
	endPass = rec.Phase("pass2-wedge-count")
	rowPairs := make([]int32, n)
	rowWedges := make([]int64, n)
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
				rowPairs[u], rowWedges[u] = ra.countRow(g, u)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		endPass()
		return nil, err
	}

	// CSR offsets (serial O(|V|) prefix sums).
	pairOff := make([]int64, n+1)
	wedgeOff := make([]int64, n+1)
	var rows int64
	for u := 0; u < n; u++ {
		pairOff[u+1] = pairOff[u] + int64(rowPairs[u])
		wedgeOff[u+1] = wedgeOff[u] + rowWedges[u]
		if rowPairs[u] > 0 {
			rows++
		}
	}
	endPass()

	// Pass 3 (fill): every row writes its precomputed slots; the diagonal
	// term is applied inline by the row owner, so no edge rescan exists.
	endPass = rec.Phase("pass3-wedge-fill")
	pairs := make([]Pair, pairOff[n])
	arena := make([]int32, wedgeOff[n])
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
				w := ra.enumerateRow(g, u)
				if int64(w) != rowWedges[u] || len(ra.touched) != int(rowPairs[u]) {
					panic(fmt.Sprintf("core: wedge fill pass disagrees with count pass at row %d (%d/%d wedges, %d/%d pairs)",
						u, w, rowWedges[u], len(ra.touched), rowPairs[u]))
				}
				if w > 0 {
					ra.emitRow(u, h1, h2, pairs[pairOff[u]:pairOff[u+1]], arena[wedgeOff[u]:wedgeOff[u+1]])
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
