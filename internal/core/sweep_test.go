package core

import (
	"fmt"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

func TestSweepPaperExample(t *testing.T) {
	g := graph.PaperExample()
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	// 8 edges end in a single cluster after 7 pairwise merges.
	if res.NumClusters() != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters())
	}
	if res.Levels != 7 || len(res.Merges) != 7 {
		t.Fatalf("levels = %d merges = %d, want 7", res.Levels, len(res.Merges))
	}
	if res.PairsProcessed != 16 {
		t.Fatalf("pairs processed = %d, want K2 = 16", res.PairsProcessed)
	}
	// The hub pair (sim 2/3) outranks leaf pairs (sim 1/2): the first
	// four merges all stem from it, joining the two edges at each leaf.
	for i := 0; i < 4; i++ {
		m := res.Merges[i]
		e1, e2 := g.Edge(int(m.A)), g.Edge(int(m.B))
		leaf1 := e1.V // hub edges are (hub, leaf) with hub < leaf... check both.
		if e1.U != 0 && e1.U != 1 {
			leaf1 = e1.U
		}
		leaf2 := e2.V
		if e2.U != 0 && e2.U != 1 {
			leaf2 = e2.U
		}
		if leaf1 != leaf2 {
			t.Fatalf("merge %d joined edges at different leaves: %+v %+v", i, e1, e2)
		}
	}
}

func TestSweepMergeLevelsStrictlyIncrease(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.2, rng.New(2))
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Merges {
		if m.Level != int32(i+1) {
			t.Fatalf("merge %d has level %d, want %d", i, m.Level, i+1)
		}
		if m.Into != min32(m.A, m.B) {
			t.Fatalf("merge %d: Into=%d, want min(%d,%d)", i, m.Into, m.A, m.B)
		}
		if m.A == m.B {
			t.Fatalf("merge %d joins a cluster with itself", i)
		}
	}
}

func TestSweepMergeSimsNonIncreasing(t *testing.T) {
	// Single-linkage dendrograms merge at non-increasing similarity.
	g := graph.ErdosRenyi(40, 0.25, rng.New(7))
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Merges); i++ {
		if res.Merges[i].Sim > res.Merges[i-1].Sim+1e-12 {
			t.Fatalf("merge %d sim %v > previous %v", i, res.Merges[i].Sim, res.Merges[i-1].Sim)
		}
	}
}

func TestSweepClusterCountConsistency(t *testing.T) {
	// clusters at end = |E| - (number of merges).
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(30, 0.2, rng.New(seed))
		res, err := Sweep(g, Similarity(g))
		if err != nil {
			t.Fatal(err)
		}
		want := g.NumEdges() - len(res.Merges)
		if got := res.NumClusters(); got != want {
			t.Fatalf("seed %d: clusters = %d, want %d", seed, got, want)
		}
	}
}

func TestSweepConnectedEdgesConverge(t *testing.T) {
	// In a complete graph all edges are mutually reachable through
	// incident pairs, so the sweep must end with one cluster.
	g := graph.Complete(7)
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("K7 clusters = %d, want 1", res.NumClusters())
	}
}

func TestSweepDisjointEdgesUntouched(t *testing.T) {
	// A perfect matching has no incident edge pairs: nothing merges.
	g := graph.DisjointEdges(5)
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 5 || len(res.Merges) != 0 {
		t.Fatalf("matching: clusters=%d merges=%d", res.NumClusters(), len(res.Merges))
	}
}

func TestSweepDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(35, 0.2, rng.New(11))
	a, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalSweep(t, "second run", b, a)
}

func TestSweepWithParallelInit(t *testing.T) {
	// Parallel Phase I feeding serial Phase II must give the same
	// dendrogram as the all-serial pipeline.
	g := graph.ErdosRenyi(50, 0.15, rng.New(13))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		par, err := Sweep(g, SimilarityParallel(g, workers))
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
}

func TestSweepMismatchedGraphFails(t *testing.T) {
	g1 := graph.Complete(5)
	pl := Similarity(g1)
	g2 := graph.DisjointEdges(5) // different incidence structure
	if _, err := Sweep(g2, pl); err == nil {
		t.Fatal("sweeping a foreign pair list succeeded")
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
