package core

import (
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// TestRowKernelMatchesBatch checks that RowKernel.Row reproduces, row for
// row, exactly the pairs the batch wedge kernel emits — same order, bitwise
// similarities, identical common-neighbor counts — on every shared test
// family.
func TestRowKernelMatchesBatch(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			batch := Similarity(g)
			n := g.NumVertices()
			h1 := make([]float64, n)
			h2 := make([]float64, n)
			VertexNorms(g, h1, h2, 0, n)
			rk := NewRowKernel(n)
			var rows []Pair
			for u := 0; u < n; u++ {
				rows = append(rows, rk.Row(g, u, h1, h2)...)
			}
			if len(rows) != len(batch.Pairs) {
				t.Fatalf("%d pairs, batch has %d", len(rows), len(batch.Pairs))
			}
			for i, want := range batch.Pairs {
				if gotP := rows[i]; gotP != want {
					t.Fatalf("pair %d = %+v, want %+v", i, gotP, want)
				}
			}
		})
	}
}

// TestVertexNormsPartialRefresh checks the incremental norm contract: after
// an edge arrival, refreshing only the two endpoints on arrays carrying the
// old graph's norms yields exactly the fresh batch arrays.
func TestVertexNormsPartialRefresh(t *testing.T) {
	src := rng.New(11)
	g0 := graph.ErdosRenyi(60, 0.08, src)
	n := g0.NumVertices()
	h1 := make([]float64, n)
	h2 := make([]float64, n)
	VertexNorms(g0, h1, h2, 0, n)

	// Rebuild with one extra edge, refresh only its endpoints.
	b := graph.NewBuilder(n)
	for _, e := range g0.Edges() {
		b.MustAddEdge(int(e.U), int(e.V), e.Weight)
	}
	u, v := 0, n-1
	if _, ok := g0.EdgeBetween(u, v); ok {
		t.Skip("random graph already has the probe edge")
	}
	b.MustAddEdge(u, v, 0.7)
	g1 := b.Build(nil)
	VertexNorms(g1, h1, h2, u, u+1)
	VertexNorms(g1, h1, h2, v, v+1)

	w1 := make([]float64, n)
	w2 := make([]float64, n)
	VertexNorms(g1, w1, w2, 0, n)
	for i := 0; i < n; i++ {
		if h1[i] != w1[i] || h2[i] != w2[i] {
			t.Fatalf("vertex %d: partial (%x,%x) vs batch (%x,%x)", i, h1[i], h2[i], w1[i], w2[i])
		}
	}
}
