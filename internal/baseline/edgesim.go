// Package baseline implements the "standard algorithm" the paper compares
// against (Section VII-A): optimally-efficient O(n²) single-linkage
// hierarchical clustering of the |E| edges, in two classic forms — the
// next-best-merge (NBM) array algorithm of Manning, Raghavan & Schütze
// (Introduction to Information Retrieval, Fig. 17.6), which keeps the dense
// Θ(n²) similarity matrix the paper's memory experiment exposes, and the
// SLINK algorithm of Sibson (1973), which runs in O(n²) time with O(n)
// memory via the pointer representation.
//
// Both operate on the link-clustering similarity: two incident edges have
// the Tanimoto similarity of their vertex pair (Eq. 1), and two non-incident
// edges have similarity 0. ThresholdComponents provides the ground-truth
// single-linkage flat clustering at any threshold for cross-validation.
package baseline

import (
	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/unionfind"
)

// EdgeSim is an O(1) similarity oracle between edge indices, backed by a
// hash map with one entry per incident edge pair (K2 entries).
type EdgeSim struct {
	n   int
	sim map[uint64]float64
}

// NewEdgeSim indexes the incident-pair similarities of pl against the edge
// ids of g, regenerating each pair's incident edge pairs from g (see
// core.AppendOps). pl may be sorted or unsorted.
func NewEdgeSim(g *graph.Graph, pl *core.PairList) *EdgeSim {
	s := &EdgeSim{n: g.NumEdges(), sim: make(map[uint64]float64, pl.NumIncidentPairs())}
	var ops []core.Op
	for i := range pl.Pairs {
		p := &pl.Pairs[i]
		ops = core.AppendOps(ops[:0], g, p.U, p.V)
		for _, op := range ops {
			s.sim[edgePairKey(op.E1, op.E2)] = p.Sim
		}
	}
	return s
}

// NumEdges returns the number of data points (edges) being clustered.
func (s *EdgeSim) NumEdges() int { return s.n }

// NumIncidentPairs returns the number of stored positive-similarity pairs.
func (s *EdgeSim) NumIncidentPairs() int { return len(s.sim) }

// Sim returns the link-clustering similarity of edges e1 and e2: their
// incident-pair Tanimoto score, or 0 when not incident (or identical).
func (s *EdgeSim) Sim(e1, e2 int32) float64 {
	if e1 == e2 {
		return 0
	}
	return s.sim[edgePairKey(e1, e2)]
}

// Pairs calls fn for every stored incident edge pair.
func (s *EdgeSim) Pairs(fn func(e1, e2 int32, sim float64)) {
	for k, v := range s.sim {
		fn(int32(k>>32), int32(uint32(k)), v)
	}
}

func edgePairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// ThresholdComponents returns the exact single-linkage flat clustering of
// the edges at similarity threshold theta: connected components of the
// graph whose arcs are incident edge pairs with similarity >= theta. Every
// cluster is labeled by its minimum edge id.
func ThresholdComponents(s *EdgeSim, theta float64) []int32 {
	uf := unionfind.NewMin(s.n)
	s.Pairs(func(e1, e2 int32, sim float64) {
		if sim >= theta {
			uf.Union(e1, e2)
		}
	})
	return uf.Labels()
}

// CutMerges replays the merges with similarity >= theta and returns the
// resulting min-labeled flat clustering over n edges.
func CutMerges(n int, merges []core.Merge, theta float64) []int32 {
	uf := unionfind.NewMin(n)
	for _, m := range merges {
		if m.Sim >= theta {
			uf.Union(m.A, m.B)
		}
	}
	return uf.Labels()
}
