package core

import (
	"fmt"

	"linkclust/internal/graph"
)

// This file exports the replay surface the incremental engine in
// internal/stream builds on: the per-row similarity kernel (RowKernel and
// PairsTouching) and the pair-list order primitives (CmpPairs,
// NewSortedPairList, VertexNorms). Everything here reuses the existing
// kernels verbatim — the exports add single-row entry points, never new
// algorithmic paths — so outputs stay bitwise identical to the batch
// pipeline by construction.

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
// identical common-neighbor counts — because it runs the very same enumerate/emit
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
// neighbor with u, in V-ascending order, in freshly allocated storage (safe
// to retain and splice). h1/h2 must hold the pass-1 norms of the current
// graph (see VertexNorms). A row with no pairs returns nil.
func (rk *RowKernel) Row(g *graph.Graph, u int, h1, h2 []float64) []Pair {
	if g.NumVertices() > rk.n {
		panic(fmt.Sprintf("core: RowKernel sized for %d vertices got graph with %d (call Grow)", rk.n, g.NumVertices()))
	}
	ra := rk.ra
	var pairs []Pair
	if np := ra.enumerateRow(g, u); np > 0 {
		pairs = make([]Pair, np)
		ra.emitRow(u, h1, h2, pairs)
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
	var pairs []Pair
	if np := ra.enumerateRowAll(g, d); np > 0 {
		pairs = make([]Pair, np)
		ra.emitRow(d, h1, h2, pairs)
		for i := range pairs {
			if pairs[i].U > pairs[i].V {
				pairs[i].U, pairs[i].V = pairs[i].V, pairs[i].U
			}
		}
	}
	ra.resetMarks(g, d)
	return pairs
}

// enumerateRowAll is enumerateRow without the v > u restriction: it
// accumulates the wedges of every partner of u, in the same ascending-k
// order per partner, and returns the partner count.
func (ra *rowAccum) enumerateRowAll(g *graph.Graph, u int) int {
	ra.touched = ra.touched[:0]
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
		}
	}
	return len(ra.touched)
}
