// Package core implements the paper's primary contribution: the two-phase
// serial link-clustering algorithm (Algorithms 1 and 2), the chain array C
// with its F(i)/MERGE primitives (Theorem 1), and the multi-threaded
// parallelization of the initialization phase (Section VI-A) together with
// the corrected pairwise chain-merge scheme used by the parallel sweeping
// phase (Section VI-B).
//
// Terminology maps one-to-one onto the paper: Similarity is Algorithm 1 and
// produces the map M as a PairList; Sweep is Algorithm 2 and produces the
// dendrogram's merge stream; Chain is the array C.
package core

import (
	"context"
	"slices"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Counter names this package records into an obs.Recorder.
const (
	// CtrSimilarityPairs is |M|: the number of vertex pairs produced by
	// Algorithm 1 (= K1 of the graph).
	CtrSimilarityPairs = "similarity.pairs"
	// CtrSimilarityIncidentPairs is the total number of incident edge
	// pairs the list drives (= K2 of the graph).
	CtrSimilarityIncidentPairs = "similarity.incident_pairs"
	// CtrSimilarityWedgeRows counts rows (smaller endpoints owning at
	// least one pair of map M) produced by the wedge-major kernel.
	CtrSimilarityWedgeRows = "similarity.wedge_rows"
	// CtrSweepPairsProcessed counts incident edge pairs fed to MERGE.
	CtrSweepPairsProcessed = "sweep.pairs_processed"
	// CtrSweepChainRewrites counts array-C entry rewrites — the quantity
	// the paper plots in Fig. 2(1).
	CtrSweepChainRewrites = "sweep.chain_rewrites"
	// CtrSweepMerges counts dendrogram merge events.
	CtrSweepMerges = "sweep.merges"
)

// Pair is one key/value of the paper's map M: a vertex pair sharing at
// least one common neighbor, its Tanimoto similarity (Eq. 1), and the
// number N of shared neighbors. For every common neighbor k, the two
// incident edges (U,k) and (V,k) have similarity Sim. The neighbors
// themselves are not stored: a sweep regenerates them from the graph by
// intersecting the adjacency rows of U and V (see AppendOps), so map M
// takes O(K1 + |E|) space instead of O(K2 + |E|).
type Pair struct {
	U, V int32
	Sim  float64
	// N is the number of common neighbors, |N(U) ∩ N(V)|: the incident
	// edge pairs (ops) the pair drives.
	N int32
}

// PairList is the materialized map M of Algorithm 1 plus the similarity
// scores. After Sort it is the list L of Algorithm 2. The windowed and
// coarse sweeps sort an unsorted list only as far as they read it (see
// SortCursor), leaving it a permutation that is list L only up to a point.
//
// Pairs is exported and mutable; code that reorders or rewrites it after a
// Sort must call Invalidate, or the cached sort state goes stale and a later
// Sort silently no-ops on unsorted data.
type PairList struct {
	Pairs  []Pair
	sorted bool
}

// NumIncidentPairs returns the total number of incident edge pairs the list
// drives, i.e. the sum of the pairs' common-neighbor counts N (= K2 of the
// graph). It reads the stored counts; CheckPairs verifies them against a
// graph.
func (pl *PairList) NumIncidentPairs() int64 {
	var n int64
	for i := range pl.Pairs {
		n += int64(pl.Pairs[i].N)
	}
	return n
}

// cmpPairs is the list-L order: non-increasing similarity, ties broken by
// (U, V) ascending. It is a total order (keys are unique), so sorting is
// deterministic under any parallel chunking.
func cmpPairs(a, b Pair) int {
	if a.Sim != b.Sim {
		if a.Sim > b.Sim {
			return -1
		}
		return 1
	}
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// Sort orders the pairs by non-increasing similarity, breaking ties by
// (U, V) ascending so runs are deterministic. Sorting is idempotent. The
// K1·log K1 sort runs chunked across workers with a parallel merge (small
// lists stay serial); the result is identical for any worker count.
func (pl *PairList) Sort() {
	pl.SortWorkers(par.DefaultCap())
}

// SortWorkers is Sort with an explicit worker count, normalized like every
// parallel entry point; values below 2 sort serially.
func (pl *PairList) SortWorkers(workers int) {
	if pl.sorted {
		return
	}
	par.SortFunc(pl.Pairs, workers, cmpPairs)
	pl.sorted = true
}

// SortWorkersCtx is SortWorkers with cooperative cancellation and panic
// isolation: it returns nil with the list sorted (and the sorted flag set);
// ctx.Err() on cancellation, leaving the flag clear and the pairs an
// unspecified permutation (callers must treat the list as unsorted); or a
// *par.WorkerPanicError if the comparator panicked, in which case the list
// contents are unspecified and the run must be abandoned.
func (pl *PairList) SortWorkersCtx(ctx context.Context, workers int) error {
	if pl.sorted {
		return ctx.Err()
	}
	if err := par.SortFuncCtx(ctx, pl.Pairs, workers, cmpPairs); err != nil {
		return err
	}
	pl.sorted = true
	return nil
}

// Sorted reports whether Sort has run.
func (pl *PairList) Sorted() bool { return pl.sorted }

// Invalidate clears the cached sort state. Call it after mutating Pairs in
// place (reordering entries, rewriting similarities) so the next Sort
// actually re-sorts instead of trusting the stale flag.
func (pl *PairList) Invalidate() { pl.sorted = false }

// link is one node of the per-pair common-neighbor linked list used during
// accumulation by the legacy hash-map kernel; lists are materialized into a
// contiguous arena at finalize.
type link struct {
	v    int32
	next int32 // index into links, -1 terminates
}

// accumEntry is the in-progress value of one map-M key.
type accumEntry struct {
	u, v int32
	dot  float64
	head int32 // first link, -1 when none
	n    int32 // number of common neighbors
}

// accumulator builds map M incrementally through a global hash map — the
// legacy kernel, kept as the reference implementation the wedge-major
// kernel is differentially tested against.
type accumulator struct {
	idx     map[uint64]int32 // packed pair -> entries index
	entries []accumEntry
	links   []link
}

func newAccumulator(hint int) *accumulator {
	return &accumulator{idx: make(map[uint64]int32, hint)}
}

func packPair(u, v int32) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// add accumulates one weight product and one common neighbor for the pair
// (u, v), which must satisfy u < v.
func (a *accumulator) add(u, v int32, prod float64, common int32) {
	key := packPair(u, v)
	i, ok := a.idx[key]
	if !ok {
		i = int32(len(a.entries))
		a.idx[key] = i
		a.entries = append(a.entries, accumEntry{u: u, v: v, head: -1})
	}
	e := &a.entries[i]
	e.dot += prod
	a.links = append(a.links, link{v: common, next: e.head})
	e.head = int32(len(a.links) - 1)
	e.n++
}

// addDot adds to the inner product of an existing pair without contributing
// a common neighbor (pass 3 of Algorithm 1). Pairs not already present are
// ignored, mirroring the "if (vi,vj) is a key of map M" guard.
func (a *accumulator) addDot(u, v int32, prod float64) {
	if i, ok := a.idx[packPair(u, v)]; ok {
		a.entries[i].dot += prod
	}
}

// vertexNorms computes H1 (average incident weight, the diagonal term Ã_ii)
// and H2 (|a_i|²) for vertices lo <= v < hi — pass 1 of Algorithm 1.
func vertexNorms(g *graph.Graph, h1, h2 []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		nb := g.Neighbors(v)
		if len(nb) == 0 {
			continue
		}
		var sum, sumSq float64
		for _, h := range nb {
			sum += h.Weight
			sumSq += h.Weight * h.Weight
		}
		avg := sum / float64(len(nb))
		h1[v] = avg
		h2[v] = avg*avg + sumSq
	}
}

// accumulateCommon runs pass 2 of Algorithm 1 for vertices lo <= v < hi:
// every ordered neighbor pair (vj < vk) of v contributes w_vj·w_vk and the
// common neighbor v to pair (vj, vk).
func accumulateCommon(g *graph.Graph, acc *accumulator, lo, hi int) {
	for v := lo; v < hi; v++ {
		nb := g.Neighbors(v)
		for j := 0; j < len(nb); j++ {
			for k := j + 1; k < len(nb); k++ {
				// Adjacency is sorted, so nb[j].To < nb[k].To.
				acc.add(nb[j].To, nb[k].To, nb[j].Weight*nb[k].Weight, int32(v))
			}
		}
	}
}

// finalize applies pass 3 (the (H1[i]+H1[j])·w_ij diagonal contribution for
// vertex pairs that are edges) and the closing similarity normalization of
// Algorithm 1, and materializes the PairList.
func (a *accumulator) finalize(g *graph.Graph, h1, h2 []float64) []LegacyPair {
	for _, e := range g.Edges() {
		a.addDot(e.U, e.V, (h1[e.U]+h1[e.V])*e.Weight)
	}
	return a.materialize(h2)
}

// materialize converts the accumulator into map M, computing the Tanimoto
// score sim = dot / (H2[u] + H2[v] - dot) for every pair and keeping its
// common-neighbor list.
func (a *accumulator) materialize(h2 []float64) []LegacyPair {
	arena := make([]int32, 0, len(a.links))
	pairs := make([]LegacyPair, len(a.entries))
	for i := range a.entries {
		e := &a.entries[i]
		start := len(arena)
		for li := e.head; li >= 0; li = a.links[li].next {
			arena = append(arena, a.links[li].v)
		}
		common := arena[start : start+int(e.n) : start+int(e.n)]
		// The linked list reversed insertion order; restore ascending
		// order for determinism.
		slices.Sort(common)
		pairs[i] = LegacyPair{
			Pair: Pair{
				U:   e.u,
				V:   e.v,
				Sim: e.dot / (h2[e.u] + h2[e.v] - e.dot),
				N:   e.n,
			},
			Common: common,
		}
	}
	return pairs
}

// Similarity runs Algorithm 1 serially with the wedge-major (Gustavson)
// kernel, producing the similarity-annotated pair list (map M). The result
// is deterministic: pairs appear in (U, V)-lexicographic order until Sort
// is called. SimilarityCtx is the instrumented, cancellable form.
func Similarity(g *graph.Graph) *PairList {
	// A background context never cancels, so the error is impossible.
	pl, _ := similarityWedgeCtx(context.Background(), g, nil)
	return pl
}

// SimilarityParallel runs Algorithm 1 multi-threaded with the wedge-major
// kernel: rows of map M partition disjointly across workers, a count pass
// sizes the CSR layout and a fill pass writes every row into precomputed
// slots, with no map-merge phase and no edge rescan (see similarity_wedge.go).
//
// The resulting PairList contains exactly the same pairs, similarities and
// common-neighbor counts as Similarity(g) — bitwise, in the same pre-Sort
// order, for any worker count.
//
// The workers argument is normalized like every parallel entry point of the
// pipeline: values below 2 (after clamping) run the serial implementation,
// values above max(runtime.GOMAXPROCS(0), runtime.NumCPU()) are clamped to that cap.
// A panic inside the kernel propagates to the caller as a
// *par.WorkerPanicError panic (use SimilarityCtx for an error return).
func SimilarityParallel(g *graph.Graph, workers int) *PairList {
	pl, _ := similarityWedgeParallelCtx(context.Background(), g, workers, nil)
	return pl
}

// LegacyPair is one entry of map M as the hash-map kernel builds it: the
// pair, with its common-neighbor list, ascending, in Common.
type LegacyPair struct {
	Pair
	Common []int32
}

// SimilarityLegacy runs Algorithm 1 serially through the original global
// hash-map accumulator. It is retained as the differential-testing
// reference: it is the only kernel that still lists each pair's common
// neighbors, so it checks both the wedge-major kernel (identical pairs, N
// and bitwise-equal similarities after Sort) and the op regeneration of
// AppendOps. Pairs appear in first-encounter order (vertex-major by common
// neighbor).
func SimilarityLegacy(g *graph.Graph) []LegacyPair {
	n := g.NumVertices()
	h1 := make([]float64, n)
	h2 := make([]float64, n)
	vertexNorms(g, h1, h2, 0, n)
	acc := newAccumulator(g.NumEdges())
	accumulateCommon(g, acc, 0, n)
	return acc.finalize(g, h1, h2)
}

// recordPairListStats records the K1/K2 counters of a finished
// initialization phase.
func recordPairListStats(rec *obs.Recorder, pl *PairList) {
	if rec == nil {
		return
	}
	rec.Add(CtrSimilarityPairs, int64(len(pl.Pairs)))
	rec.Add(CtrSimilarityIncidentPairs, pl.NumIncidentPairs())
}
