// Word-association network clustering — the paper's motivating workload.
//
// A synthetic tweet corpus (standing in for the paper's December-2011
// Twitter month) is tokenized, stop-filtered and stemmed; the top fraction
// α of candidate words become vertices with PMI edge weights (Eq. 3); and
// link clustering reveals the topic communities the generator planted,
// including words that belong to several topics at once.
//
// Run with: go run ./examples/wordassoc
package main

import (
	"context"
	"fmt"
	"log"

	"linkclust"
)

func main() {
	cfg := linkclust.DefaultSynthConfig()
	cfg.Vocab = 2500
	cfg.Docs = 10000
	cfg.Topics = 12
	cfg.Seed = 7
	c := linkclust.SynthesizeCorpus(cfg)
	fmt.Printf("corpus: %d documents\n", c.NumDocs())

	const alpha = 0.25
	g, err := linkclust.BuildWordGraph(c, alpha, linkclust.AssocOptions{EdgePermSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	s := linkclust.ComputeStats(g)
	fmt.Printf("association graph at α=%.2f: %d words, %d edges, density %.4f\n",
		alpha, s.Vertices, s.Edges, s.Density)
	fmt.Printf("K1=%d vertex pairs, K2=%d incident edge pairs\n\n", s.K1, s.K2)

	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	d := linkclust.NewDendrogram(res)
	theta, density, cut := linkclust.BestCut(g, d)
	fmt.Printf("dendrogram: %d merges; best cut at sim >= %.4f (partition density %.4f)\n\n",
		len(res.Merges), theta, density)

	comms := linkclust.Communities(g, cut)
	shown := 0
	for _, com := range comms {
		if len(com.Edges) < 5 {
			continue // skip fragments
		}
		fmt.Printf("community of %d links / %d words:", len(com.Edges), len(com.Nodes))
		for i, v := range com.Nodes {
			if i >= 10 {
				fmt.Printf(" …")
				break
			}
			fmt.Printf(" %s", g.Label(int(v)))
		}
		fmt.Println()
		if shown++; shown >= 8 {
			break
		}
	}

	overlaps := 0
	for _, cs := range linkclust.NodeMemberships(g, comms) {
		if len(cs) > 1 {
			overlaps++
		}
	}
	fmt.Printf("\n%d of %d words belong to more than one community\n", overlaps, g.NumVertices())
}
