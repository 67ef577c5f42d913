// Quickstart: cluster the links of a small graph with overlapping
// community structure and print the dendrogram and the communities at the
// best partition-density cut.
//
// The graph is two 4-cliques sharing one vertex — the textbook case where
// node clustering must put the bridge vertex in a single community but link
// clustering correctly reports it as belonging to both.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"linkclust"
)

func main() {
	// Two K4s sharing vertex "d".
	labels := []string{"a", "b", "c", "d", "e", "f", "g"}
	b := linkclust.NewLabeledGraphBuilder(labels)
	clique := func(vs ...int) {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				b.MustAddEdge(vs[i], vs[j], 1)
			}
		}
	}
	clique(0, 1, 2, 3) // a b c d
	clique(3, 4, 5, 6) // d e f g
	g := b.Build(nil)

	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("dendrogram: %d merges across %d levels\n\n", len(res.Merges), res.Levels)
	for _, m := range res.Merges {
		fmt.Printf("  level %2d: clusters %2d + %2d -> %2d  (similarity %.3f)\n",
			m.Level, m.A, m.B, m.Into, m.Sim)
	}

	d := linkclust.NewDendrogram(res)
	theta, density, cut := linkclust.BestCut(g, d)
	fmt.Printf("\nbest cut: similarity >= %.3f, partition density %.3f\n", theta, density)

	comms := linkclust.Communities(g, cut)
	for i, c := range comms {
		fmt.Printf("community %d (%d links):", i+1, len(c.Edges))
		for _, v := range c.Nodes {
			fmt.Printf(" %s", g.Label(int(v)))
		}
		fmt.Println()
	}

	memb := linkclust.NodeMemberships(g, comms)
	for v, cs := range memb {
		if len(cs) > 1 {
			fmt.Printf("vertex %s overlaps %d communities — the structure link clustering reveals\n",
				g.Label(v), len(cs))
		}
	}
}
