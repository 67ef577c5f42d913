package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/dendro"
	"linkclust/internal/graph"
)

// measureCommunities times cold passes from tweet text to link communities:
// corpus ingest, word graph, clustering at nproc workers with the auto
// engine, then dendrogram, best cut and communities — what
// `linkclust cluster -comms` does. It is the only workload that runs corpus,
// assoc and dendro.
//
// Each pass runs on a corpus of its own, drawn from the seed. The cut's cost
// follows the number of distinct thresholds, which differs by up to a fifth
// from one corpus to the next, so a median over several corpora moves far
// less from seed to seed than the time of any one of them.
func measureCommunities(ctx context.Context, e *env, tr *tracer, budget time.Duration) (*stretch, error) {
	st := newStretch()
	rng := rand.New(rand.NewPCG(e.seed, 0xc0))
	engines := map[string]int{}
	var communities []int
	var corpusAlloc, simAlloc uint64
	// Sums over the passes of the sizes and Theorem 2 terms of their graphs.
	var edges, k1, k2, thresholds, thresholdEdges, sortTerm, sweepTerm float64
	deadline := time.Now().Add(budget)
	for st.attempted == 0 || time.Now().Before(deadline) {
		// Set-up: the pass's tweet text. Its reference is not timed.
		t0 := time.Now()
		lines := tweetLines(e.scale, rng.Uint64())
		st.setups = append(st.setups, time.Since(t0).Seconds())
		g, err := wordGraph(lines, e.scale.passFraction)
		if err != nil {
			return nil, err
		}
		want, err := e.reference(g, false)
		if err != nil {
			return nil, err
		}
		t2 := theorem2Of(graph.ComputeStats(g))
		engines[core.ChooseSweepEngine(int64(t2.k2), e.workers, false)]++

		st.attempted++
		t0 = time.Now()
		p, err := communitiesPass(ctx, e, tr, lines)
		d := time.Since(t0).Seconds()
		if err == nil {
			var got string
			if got, err = mergesSHA(p.g.NumEdges(), p.res.Merges); err == nil && got != want {
				err = errMismatch
			}
		}
		if err != nil {
			st.failed++
			opFailed(fmt.Sprintf("pass %d", st.attempted), err)
			continue
		}
		// A pass holds the most when it returns its outputs.
		st.settleHeap()
		runtime.KeepAlive(p)
		st.lat = append(st.lat, d)
		st.cold = append(st.cold, d)
		st.busy += d
		communities = append(communities, len(p.comms))
		corpusAlloc += p.corpusAlloc
		simAlloc += p.simAlloc
		th := float64(len(p.d.Thresholds()))
		edges, k1, k2, thresholds = edges+t2.edges, k1+t2.k1, k2+t2.k2, thresholds+th
		// BestCut scores every threshold plus the all-singletons cut, each in
		// one pass over the edges.
		thresholdEdges += (th + 1) * t2.edges
		sortTerm += t2.sortTerm()
		sweepTerm += t2.sweepTerm()
	}
	e.info["communities"], e.info["sweep_engines"] = communities, engines
	if tr == nil || len(st.lat) == 0 {
		return st, nil
	}

	n := float64(len(st.lat))
	per := func(name string) float64 { return tr.total(name) / n }
	l := st.layers
	l["corpus.ingest_s"] = per("corpus.ingest")
	l["corpus.alloc_bytes"] = float64(corpusAlloc) / n
	l["assoc.build_s"] = per("assoc.build")
	l["assoc.edges"] = edges / n
	l["core.similarity_s"] = per("core.similarity")
	l["core.similarity_alloc_bytes"] = float64(simAlloc) / n
	l["core.pairs"], l["core.incident_pairs"] = k1/n, k2/n
	l["core.sort_s"] = per("core.sort")
	l["core.sweep_s"] = per("core.sweep")
	l["core.sort_ns_per_k1log2k1"] = ratio(tr.total("core.sort"), sortTerm)
	l["core.sweep_ns_per_sqrtk2_e"] = ratio(tr.total("core.sweep"), sweepTerm)
	l["dendro.bestcut_s"] = per("dendro.bestcut")
	l["dendro.thresholds"] = thresholds / n
	l["dendro.bestcut_ns_per_threshold_edge"] = ratio(tr.total("dendro.bestcut"), thresholdEdges)
	l["dendro.communities_s"] = per("dendro.communities")
	return st, nil
}

// pass is the output of one corpus-to-communities pass.
type pass struct {
	g     *graph.Graph
	res   *core.Result
	d     *dendro.Dendrogram
	comms []dendro.Community
	// heap allocation of the corpus ingest and of Phase I (traced passes)
	corpusAlloc, simAlloc uint64
}

func communitiesPass(ctx context.Context, e *env, tr *tracer, lines []string) (*pass, error) {
	p := &pass{}
	root := tr.start("pass", 0)
	defer tr.end(root)

	s := tr.start("corpus.ingest", root)
	a0 := allocBytes()
	c := linkclust.NewCorpus()
	for _, l := range lines {
		c.AddDocument(l)
	}
	p.corpusAlloc = allocBytes() - a0
	tr.end(s)

	s = tr.start("assoc.build", root)
	g, err := linkclust.BuildWordGraph(c, e.scale.passFraction, linkclust.AssocOptions{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p.g = g

	if tr == nil {
		p.res, err = linkclust.ClusterCtx(ctx, g, linkclust.ClusterOptions{Workers: e.workers, Engine: linkclust.EngineAuto})
	} else {
		p.res, p.simAlloc, err = clusterTraced(ctx, g, e.workers, tr, root)
	}
	if err != nil {
		return nil, err
	}

	s = tr.start("dendro.bestcut", root)
	p.d = linkclust.NewDendrogram(p.res)
	_, _, labels := linkclust.BestCut(g, p.d)
	tr.end(s)

	s = tr.start("dendro.communities", root)
	p.comms = linkclust.Communities(g, labels)
	tr.end(s)
	return p, nil
}

// clusterTraced is ClusterCtx with the auto engine, split at its layer
// boundaries: Phase I, the K1·log K1 sort, then the sweep entry auto resolves
// to, which finds the list sorted and skips its own sort.
func clusterTraced(ctx context.Context, g *graph.Graph, workers int, tr *tracer, parent int) (*core.Result, uint64, error) {
	s := tr.start("core.similarity", parent)
	a0 := allocBytes()
	pl, err := linkclust.SimilarityCtx(ctx, g, workers, nil)
	alloc := allocBytes() - a0
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	engine := core.ChooseSweepEngine(pl.NumIncidentPairs(), workers, false)

	s = tr.start("core.sort", parent)
	err = pl.SortWorkersCtx(ctx, workers)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}

	s = tr.start("core.sweep", parent)
	defer tr.end(s)
	var res *core.Result
	switch engine {
	case linkclust.EngineParallel:
		res, err = linkclust.SweepParallelCtx(ctx, g, pl, workers, nil)
	case linkclust.EngineSerial:
		res, err = linkclust.SweepCtx(ctx, g, pl, nil)
	default:
		err = fmt.Errorf("auto resolved to unexpected sweep engine %q", engine)
	}
	return res, alloc, err
}
