// Multi-core strong scaling (Section VI / Fig. 6): both phases of the
// algorithm run multi-threaded — the initialization phase partitions the
// rows of map M across workers, with no merge phase; the coarse-grained
// sweeping phase replicates array C per worker and combines replicas with
// the corrected merge scheme.
//
// This example sweeps the thread count, reports wall-clock speedups, and
// verifies that every thread count produces the identical clustering.
//
// Run with: go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"linkclust"
)

func main() {
	cfg := linkclust.DefaultSynthConfig()
	cfg.Vocab = 2500
	cfg.Docs = 8000
	cfg.Topics = 16
	cfg.Seed = 5
	c := linkclust.SynthesizeCorpus(cfg)
	g, err := linkclust.BuildWordGraph(c, 0.2, linkclust.AssocOptions{EdgePermSeed: 42})
	if err != nil {
		log.Fatal(err)
	}
	s := linkclust.ComputeStats(g)
	fmt.Printf("graph: %d words, %d edges, K2=%d incident pairs\n", s.Vertices, s.Edges, s.K2)
	fmt.Printf("machine: %d CPU core(s) — speedups saturate at the core count\n\n", runtime.NumCPU())

	threads := []int{1, 2, 4, 6}
	ctx := context.Background()

	fmt.Println("initialization phase (Algorithm 1, Section VI-A):")
	var baseInit time.Duration
	var refPairs int
	for _, t := range threads {
		start := time.Now()
		pl, err := linkclust.SimilarityCtx(ctx, g, t, nil)
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		if t == 1 {
			baseInit = d
			refPairs = len(pl.Pairs)
		}
		if len(pl.Pairs) != refPairs {
			log.Fatalf("threads=%d produced %d pairs, want %d", t, len(pl.Pairs), refPairs)
		}
		fmt.Printf("  T=%d: %8v  speedup %.2fx  (%d pairs)\n",
			t, d.Round(time.Millisecond), float64(baseInit)/float64(d), len(pl.Pairs))
	}

	fmt.Println("\ncoarse-grained sweeping phase (Section VI-B):")
	params := linkclust.DefaultCoarseParams()
	params.Phi = 50
	params.Delta0 = 500
	var baseSweep time.Duration
	var refClusters int
	for _, t := range threads {
		params.Workers = t
		start := time.Now()
		res, err := linkclust.CoarseClusterCtx(ctx, g, params, linkclust.ClusterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		if t == 1 {
			baseSweep = d
			refClusters = res.FinalClusters
		}
		if res.FinalClusters != refClusters {
			log.Fatalf("threads=%d reached %d clusters, want %d", t, res.FinalClusters, refClusters)
		}
		fmt.Printf("  T=%d: %8v  speedup %.2fx  (%d levels, %d clusters)\n",
			t, d.Round(time.Millisecond), float64(baseSweep)/float64(d),
			res.Levels, res.FinalClusters)
	}

	fmt.Println("\nall thread counts produced identical clusterings ✓")
}
