// Community recovery on planted ground truth: generate a benchmark graph
// with known overlapping communities (LFR-style), run link clustering, and
// score the recovered node cover with overlapping NMI (Lancichinetti et
// al. 2009). The coarse-grained sweep is scored too, showing that bounding
// the dendrogram's merge rate costs little recovery quality.
//
// Run with: go run ./examples/communities
package main

import (
	"context"
	"fmt"
	"log"

	"linkclust"
)

func main() {
	cfg := linkclust.DefaultPlantedConfig()
	cfg.Nodes = 300
	cfg.Communities = 10
	cfg.AvgDegree = 14
	cfg.Mu = 0.15
	cfg.OverlapFrac = 0.1
	bench, err := linkclust.GeneratePlanted(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := bench.Graph
	fmt.Printf("planted benchmark: %d nodes, %d edges, %d communities, μ=%.2f\n",
		g.NumVertices(), g.NumEdges(), cfg.Communities, cfg.Mu)
	overlapping := 0
	for _, m := range bench.Memberships {
		if len(m) > 1 {
			overlapping++
		}
	}
	fmt.Printf("%d nodes belong to two communities\n\n", overlapping)

	// Fine-grained link clustering; scan cuts across the dendrogram and
	// score each against the truth. Partition density (computable without
	// ground truth) should peak near the NMI peak — that is what makes it
	// a usable model-selection criterion.
	ctx := context.Background()
	res, err := linkclust.ClusterCtx(ctx, g, linkclust.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	d := linkclust.NewDendrogram(res)
	ths := d.Thresholds()
	fmt.Println("cut scan (fine-grained dendrogram):")
	fmt.Println("  sim>=   clusters  density   NMI")
	bestDensity, bestDensityNMI, bestNMI := -1.0, 0.0, 0.0
	for i := 0; i < len(ths); i += max(1, len(ths)/10) {
		theta := ths[i]
		labels := d.CutSim(theta)
		recovered := significant(linkclust.Communities(g, labels), 3)
		if len(recovered) == 0 {
			continue
		}
		density := linkclust.PartitionDensity(g, labels)
		nmi, err := linkclust.CompareCovers(linkclust.CoverOf(recovered), bench.Cover, g.NumVertices())
		if err != nil {
			continue // degenerate cut (e.g. everything in one community)
		}
		fmt.Printf("  %.3f  %8d  %.4f    %.3f\n", theta, len(recovered), density, nmi)
		if density > bestDensity {
			bestDensity, bestDensityNMI = density, nmi
		}
		if nmi > bestNMI {
			bestNMI = nmi
		}
	}
	fmt.Printf("\nbest achievable NMI over scanned cuts: %.3f\n", bestNMI)
	fmt.Printf("NMI at the maximum-density cut:        %.3f (density %.4f)\n\n",
		bestDensityNMI, bestDensity)

	// Coarse-grained clustering: scan its (much shorter) level sequence
	// the same way.
	params := linkclust.DefaultCoarseParams()
	params.Phi = cfg.Communities
	params.Delta0 = 100
	cres, err := linkclust.CoarseClusterCtx(ctx, g, params, linkclust.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cd := linkclust.NewCoarseDendrogram(cres)
	cBestDensity, cBestNMI := -1.0, 0.0
	for level := int32(1); level <= cres.Levels; level++ {
		labels := cd.CutLevel(level)
		recovered := significant(linkclust.Communities(g, labels), 3)
		if len(recovered) == 0 {
			continue
		}
		density := linkclust.PartitionDensity(g, labels)
		nmi, err := linkclust.CompareCovers(linkclust.CoverOf(recovered), bench.Cover, g.NumVertices())
		if err != nil {
			continue
		}
		if density > cBestDensity {
			cBestDensity, cBestNMI = density, nmi
		}
	}
	fmt.Printf("coarse-grained sweep (φ=%d, %d levels, %.1f%% of pairs processed):\n",
		params.Phi, cres.Levels, 100*cres.FractionProcessed())
	fmt.Printf("  NMI at its maximum-density level: %.3f (density %.4f)\n",
		cBestNMI, cBestDensity)
}

// significant keeps communities with more than minLinks links, dropping the
// fragment tail that best-density cuts leave behind.
func significant(comms []linkclust.Community, minLinks int) []linkclust.Community {
	out := comms[:0]
	for _, c := range comms {
		if len(c.Edges) >= minLinks {
			out = append(out, c)
		}
	}
	return out
}
