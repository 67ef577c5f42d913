package linkclust

import (
	"bytes"
	"context"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API: synthesize a corpus,
// build the word graph, cluster three ways, analyze the dendrogram.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Vocab = 400
	cfg.Docs = 1200
	cfg.Topics = 8
	c := SynthesizeCorpus(cfg)

	g, err := BuildWordGraph(c, 0.3, AssocOptions{EdgePermSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("word graph has no edges")
	}
	stats := ComputeStats(g)
	if stats.K1 > stats.K2 || stats.K2 > stats.K3 {
		t.Fatalf("K ordering violated: %+v", stats)
	}

	ctx := context.Background()
	res, err := ClusterCtx(ctx, g, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ClusterCtx(ctx, g, ClusterOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Merges) != len(res.Merges) {
		t.Fatalf("parallel init changed the dendrogram: %d vs %d merges", len(par.Merges), len(res.Merges))
	}

	params := DefaultCoarseParams()
	params.Phi = 10
	params.Delta0 = 50
	params.Workers = 2
	cres, err := CoarseClusterCtx(ctx, g, params, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Levels == 0 && g.NumEdges() > params.Phi {
		t.Fatal("coarse clustering committed no levels")
	}

	d := NewDendrogram(res)
	theta, density, labels := BestCut(g, d)
	if len(labels) != g.NumEdges() {
		t.Fatalf("labels length %d", len(labels))
	}
	if density < 0 && theta <= 0 {
		t.Fatalf("degenerate best cut: theta=%v density=%v", theta, density)
	}
	comms := Communities(g, labels)
	if len(comms) == 0 {
		t.Fatal("no communities")
	}
	memb := NodeMemberships(g, comms)
	if len(memb) != g.NumVertices() {
		t.Fatalf("memberships length %d", len(memb))
	}
	cd := NewCoarseDendrogram(cres)
	if cd.NumEdges() != g.NumEdges() {
		t.Fatalf("coarse dendrogram over %d edges", cd.NumEdges())
	}
}

func TestFacadeGraphRoundTrip(t *testing.T) {
	b := NewLabeledGraphBuilder([]string{"x", "y", "z"})
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	g := b.Build(nil)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.Label(2) != "z" {
		t.Fatalf("round trip lost data: %d edges, label %q", h.NumEdges(), h.Label(2))
	}
}

func TestFacadeSimilarityPaths(t *testing.T) {
	b := NewGraphBuilder(4)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(2, 3, 1)
	g := b.Build(nil)
	ctx := context.Background()
	s, err := SimilarityCtx(ctx, g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := SimilarityCtx(ctx, g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != len(p.Pairs) {
		t.Fatalf("similarity paths disagree: %d vs %d pairs", len(s.Pairs), len(p.Pairs))
	}
	res, err := SweepCtx(ctx, g, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() < 1 {
		t.Fatal("no clusters")
	}
	if PartitionDensity(g, res.Chain.Assignments()) < -1 {
		t.Fatal("absurd partition density")
	}
}
