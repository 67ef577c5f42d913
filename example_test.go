package linkclust_test

import (
	"context"
	"fmt"
	"log"

	"linkclust"
)

// twoTriangles builds the smallest graph with overlapping structure: two
// triangles sharing one vertex.
func twoTriangles() *linkclust.Graph {
	b := linkclust.NewLabeledGraphBuilder([]string{"a", "b", "c", "d", "e"})
	b.MustAddEdge(0, 1, 1) // a-b
	b.MustAddEdge(0, 2, 1) // a-c
	b.MustAddEdge(1, 2, 1) // b-c
	b.MustAddEdge(2, 3, 1) // c-d
	b.MustAddEdge(2, 4, 1) // c-e
	b.MustAddEdge(3, 4, 1) // d-e
	return b.Build(nil)
}

// Example demonstrates the basic pipeline: cluster the links of a graph and
// read off the communities at the best partition-density cut.
func Example() {
	g := twoTriangles()
	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	d := linkclust.NewDendrogram(res)
	_, density, labels := linkclust.BestCut(g, d)
	comms := linkclust.Communities(g, labels)
	fmt.Printf("communities: %d, partition density: %.2f\n", len(comms), density)
	for _, c := range comms {
		names := ""
		for _, v := range c.Nodes {
			names += g.Label(int(v))
		}
		fmt.Printf("  %d links over %s\n", len(c.Edges), names)
	}
	// Output:
	// communities: 2, partition density: 1.00
	//   3 links over abc
	//   3 links over cde
}

// ExampleNodeMemberships shows the defining feature of link clustering:
// vertices can belong to several communities.
func ExampleNodeMemberships() {
	g := twoTriangles()
	res, _ := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{})
	d := linkclust.NewDendrogram(res)
	_, _, labels := linkclust.BestCut(g, d)
	comms := linkclust.Communities(g, labels)
	memb := linkclust.NodeMemberships(g, comms)
	for v, cs := range memb {
		if len(cs) > 1 {
			fmt.Printf("%s belongs to %d communities\n", g.Label(v), len(cs))
		}
	}
	// Output:
	// c belongs to 2 communities
}

// ExampleComputeStats reports the structural quantities of Theorem 2.
func ExampleComputeStats() {
	g := twoTriangles()
	s := linkclust.ComputeStats(g)
	fmt.Printf("V=%d E=%d K1=%d K2=%d K3=%d\n", s.Vertices, s.Edges, s.K1, s.K2, s.K3)
	// Output:
	// V=5 E=6 K1=10 K2=10 K3=15
}

// ExampleCoarseClusterCtx runs the coarse-grained algorithm, which bounds
// the cluster-merge rate per level and stops below φ clusters.
func ExampleCoarseClusterCtx() {
	g := twoTriangles()
	params := linkclust.DefaultCoarseParams()
	params.Phi = 2
	params.Delta0 = 4
	res, err := linkclust.CoarseClusterCtx(context.Background(), g, params, linkclust.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters: %d (processed %.0f%% of incident pairs)\n",
		res.FinalClusters, 100*res.FractionProcessed())
	// Output:
	// clusters: 2 (processed 60% of incident pairs)
}

// ExampleSimilarityCtx inspects the Tanimoto similarities of Algorithm 1.
func ExampleSimilarityCtx() {
	g := twoTriangles()
	pl, err := linkclust.SimilarityCtx(context.Background(), g, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	pl.Sort()
	top := pl.Pairs[0]
	fmt.Printf("most similar vertex pair: %s,%s (%.2f) via %d common neighbors\n",
		g.Label(int(top.U)), g.Label(int(top.V)), top.Sim, top.N)
	// Output:
	// most similar vertex pair: a,b (1.00) via 1 common neighbors
}

// ExampleOverlapModularity scores a recovered cover without ground truth.
func ExampleOverlapModularity() {
	g := twoTriangles()
	cover := linkclust.Cover{{0, 1, 2}, {2, 3, 4}}
	eq, err := linkclust.OverlapModularity(g, cover)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage: %.2f, EQ: %.2f\n", linkclust.Coverage(g, cover), eq)
	// Output:
	// coverage: 1.00, EQ: 0.17
}
