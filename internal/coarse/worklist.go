// Package coarse implements Section V of the paper: coarse-grained
// hierarchical link clustering. The sorted pair list is processed in chunks,
// one dendrogram level per chunk, under the soundness constraint that the
// cluster count shrinks by at most a factor γ between consecutive levels,
// stopping once fewer than φ clusters remain. A mode-transition machine
// (head / tail / rollback, Fig. 2(3)) drives chunk-size estimation:
// exponential growth in the head, slope extrapolation toward the target
// merge rate γ̃ = (1+γ)/2 in the tail and after rollbacks, and reuse of
// saved rollback states to avoid recomputation.
//
// The chunk structure also provides the synchronization points for the
// multi-threaded sweeping phase of Section VI-B: within a chunk, each worker
// merges a partition of the incident edge pairs on its own replica of array
// C, and the replicas are combined pairwise with core.MergeChains.
package coarse

import (
	"context"
	"fmt"
	"time"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/par"
)

// workList adapts list L for chunked processing. The list is sorted lazily,
// one similarity bucket at a time through a core.SortCursor, and edge
// lookups are resolved lazily, pair by pair: the whole point of
// coarse-grained clustering is that the tail of the list is never
// processed, so it must never be sorted either, and its incident edge pairs
// must never be touched (an eager K2-sized precomputation would dominate
// the runtime the early stop saves). Rollbacks and reused states only
// revisit positions already read, which are sorted.
type workList struct {
	g     *graph.Graph
	pairs []core.Pair
	cur   *core.SortCursor
	err   error         // first bucket-sort failure (cancellation or a panic)
	took  time.Duration // time spent in bucket sorts
	total int64
	ops   []core.Op  // scratch reused across opsOf calls
	buf   [][2]int32 // scratch reused across opsOf calls
}

// buildWorkList wraps the pair list for lazy sorting.
func buildWorkList(g *graph.Graph, pl *core.PairList) (*workList, error) {
	return buildWorkListCtx(context.Background(), g, pl, 0)
}

// buildWorkListCtx is buildWorkList with cancellable bucket sorts; workers
// <= 0 selects the default sort parallelism.
func buildWorkListCtx(ctx context.Context, g *graph.Graph, pl *core.PairList, workers int) (*workList, error) {
	if workers <= 0 {
		workers = par.DefaultCap()
	}
	cur, err := core.NewSortCursor(ctx, pl, workers)
	if err != nil {
		return nil, err
	}
	return &workList{g: g, pairs: pl.Pairs, cur: cur, total: pl.NumIncidentPairs()}, nil
}

// ensure sorts the list through vertex pair p. A failure is kept and
// reported by the next opsOf call.
func (w *workList) ensure(p int) {
	if p >= w.cur.Sorted() && w.err == nil {
		start := time.Now()
		w.err = w.cur.SortTo(p)
		w.took += time.Since(start)
	}
}

// numPairs returns the number of vertex pairs (entries of L).
func (w *workList) numPairs() int { return len(w.pairs) }

// totalOps returns the total number of incident edge pairs (K2).
func (w *workList) totalOps() int64 { return w.total }

// sim returns the similarity of vertex pair p.
func (w *workList) sim(p int) float64 {
	w.ensure(p)
	return w.pairs[p].Sim
}

// opsOf resolves the merge operations of vertex pair p: for each common
// neighbor k of (U, V), regenerated from the graph in ascending order (see
// core.AppendOps), the edge pair ((U,k), (V,k)). The returned slice is
// valid until the next opsOf call. An error indicates the pair list was
// built from a different graph (the pair's count N disagrees with the
// graph), or that sorting the list failed.
func (w *workList) opsOf(p int) ([][2]int32, error) {
	w.ensure(p)
	if w.err != nil {
		return nil, w.err
	}
	pr := &w.pairs[p]
	w.ops = core.AppendOps(w.ops[:0], w.g, pr.U, pr.V)
	if len(w.ops) != int(pr.N) {
		return nil, fmt.Errorf("coarse: pair (%d,%d) lists %d common neighbors, the graph has %d", pr.U, pr.V, pr.N, len(w.ops))
	}
	w.buf = w.buf[:0]
	for _, op := range w.ops {
		w.buf = append(w.buf, [2]int32{op.E1, op.E2})
	}
	return w.buf, nil
}

// opCount returns |l| for vertex pair p — the number of incident edge pairs
// it contributes, its count N.
func (w *workList) opCount(p int) int64 {
	w.ensure(p)
	return int64(w.pairs[p].N)
}
