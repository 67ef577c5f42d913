// Coarse-grained dendrograms (Section V): when a strict merge-by-merge
// dendrogram is unnecessary, bounding the per-level merge rate by γ and
// stopping below φ clusters processes only a fraction of the incident edge
// pairs — the long tail of the sorted pair list is skipped entirely.
//
// This example runs both the fine-grained and the coarse-grained sweep on
// the same word-association graph and contrasts their work, levels, and
// epoch behaviour (head/tail/rollback/reused, Fig. 5(1)).
//
// Run with: go run ./examples/coarse
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"linkclust"
)

func main() {
	cfg := linkclust.DefaultSynthConfig()
	cfg.Vocab = 3000
	cfg.Docs = 12000
	cfg.Topics = 16
	cfg.Seed = 11
	c := linkclust.SynthesizeCorpus(cfg)
	g, err := linkclust.BuildWordGraph(c, 0.3, linkclust.AssocOptions{EdgePermSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d words, %d edges\n\n", g.NumVertices(), g.NumEdges())

	// One shared initialization phase; then compare the two sweeps, as
	// the paper's Fig. 5(2) does.
	ctx := context.Background()
	start := time.Now()
	pl, err := linkclust.SimilarityCtx(ctx, g, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	initTime := time.Since(start)

	finePairs := &linkclust.PairList{Pairs: append([]linkclust.Pair(nil), pl.Pairs...)}
	start = time.Now()
	fine, err := linkclust.SweepCtx(ctx, g, finePairs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fineTime := time.Since(start)

	params := linkclust.DefaultCoarseParams()
	params.Phi = 50
	params.Delta0 = 200
	start = time.Now()
	coarse, err := linkclust.CoarseSweepCtx(ctx, g, pl, params, nil)
	if err != nil {
		log.Fatal(err)
	}
	coarseTime := time.Since(start)

	fmt.Printf("initialization: %v\n", initTime.Round(time.Millisecond))
	fmt.Printf("fine-grained:   %6d levels, %d incident pairs processed, %v\n",
		fine.Levels, fine.PairsProcessed, fineTime.Round(time.Millisecond))
	fmt.Printf("coarse-grained: %6d levels, %.1f%% of %d incident pairs processed, %v\n\n",
		coarse.Levels, 100*coarse.FractionProcessed(), coarse.TotalOps,
		coarseTime.Round(time.Millisecond))

	kinds := map[string]int{}
	for _, ep := range coarse.Epochs {
		kinds[ep.Kind.String()]++
	}
	fmt.Printf("epoch breakdown: head/fresh=%d tail/fresh=%d rollback=%d reused=%d\n\n",
		kinds["head/fresh"], kinds["tail/fresh"], kinds["rollback"], kinds["reused"])

	fmt.Println("level  clusters  chunk-size  kind")
	for _, ep := range coarse.Epochs {
		if ep.Kind.String() == "rollback" {
			fmt.Printf("  --   %8d  %10d  %s (undone)\n", ep.Clusters, ep.ChunkSize, ep.Kind)
			continue
		}
		fmt.Printf("%5d  %8d  %10d  %s\n", ep.Level, ep.Clusters, ep.ChunkSize, ep.Kind)
	}

	// The coarse dendrogram still supports the same analyses.
	d := linkclust.NewCoarseDendrogram(coarse)
	mid := coarse.Levels / 2
	if mid > 0 {
		labels := d.CutLevel(mid)
		fmt.Printf("\npartition density at level %d: %.4f\n",
			mid, linkclust.PartitionDensity(g, labels))
	}
}
