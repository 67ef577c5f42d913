package core

import (
	"strings"
	"sync"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// cliqueRing returns the given number of cliques, each joined to the next
// by one light bridge edge, with random clique edge weights: the pairs of
// one clique interleave with every other clique's in list L, so a clique's
// inner vertices are sealed into one cluster windows before the bridges
// close the spanning forest.
func cliqueRing(cliques, size int, seed uint64) *graph.Graph {
	src := rng.New(seed)
	b := graph.NewBuilder(cliques * size)
	for c := 0; c < cliques; c++ {
		off := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.MustAddEdge(off+i, off+j, 0.5+src.Float64())
			}
		}
		b.MustAddEdge(off, (off+size+1)%(cliques*size), 0.05)
	}
	return b.Build(nil)
}

// sealWordGraph builds, once, the word graph of a synthetic tweet corpus of
// the end-to-end benchmark's size (4,000 words, 6,000 tweets over 16
// topics, fed through AddDocument) at fraction 0.1: about 11k edges.
var sealWordGraph = sync.OnceValues(func() (*graph.Graph, error) {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics = 4000, 6000, 16
	synth := corpus.Synthesize(cfg)
	c := corpus.New()
	for i := 0; i < synth.NumDocs(); i++ {
		c.AddDocument(strings.Join(synth.Doc(i), " "))
	}
	return assoc.Build(c, 0.1, assoc.Options{})
})

// replaySeals replays serial Algorithm 2 over the sorted list pl window by
// window — cut greedily by the counts N of pl, as the engine cuts them —
// through the window whose merges close the spanning forest, and reports
// for each pair it reaches whether the engine retires it as sealed: whether
// at the start of the pair's window U and V each have an edge and all of
// their edges lie in one cluster. Ops are regenerated from the graph, so a
// planted count moves the cuts but not the merges.
func replaySeals(g *graph.Graph, pl *PairList) []bool {
	var sealed []bool
	ch := NewChain(g.NumEdges())
	forest, merges := forestSize(g), int32(0)
	for start := 0; start < len(pl.Pairs) && merges < forest; {
		end, w := start, 0
		for end < len(pl.Pairs) && w < sweepWindowOps {
			w += int(pl.Pairs[end].N)
			end++
		}
		for _, p := range pl.Pairs[start:end] {
			sealed = append(sealed, oneCluster(g, ch, p.U, p.V))
		}
		for _, p := range pl.Pairs[start:end] {
			for _, op := range AppendOps(nil, g, p.U, p.V) {
				if _, _, merged := ch.Merge(op.E1, op.E2); merged {
					merges++
				}
			}
		}
		start = end
	}
	return sealed
}

// oneCluster reports whether u and v each have an edge and every edge of
// either lies in one cluster of ch.
func oneCluster(g *graph.Graph, ch *Chain, u, v int32) bool {
	cluster := int32(-1)
	for _, x := range []int32{u, v} {
		if g.Degree(int(x)) == 0 {
			return false
		}
		for _, h := range g.Neighbors(int(x)) {
			c := ch.Find(h.Edge)
			if cluster >= 0 && c != cluster {
				return false
			}
			cluster = c
		}
	}
	return true
}

// TestSweepSealedPairs pins the sealed-pair skip on graphs where it
// engages: the engine must retire as sealed exactly the prefix pairs
// replaySeals finds, at least one, and still reproduce serial Sweep
// bitwise, with the same CtrSweepSealedPairs at
// T ∈ {1, 2, 4, 8} and on the in-memory, spilled and frontier-fed paths
// (the oracle's cell check compares it with the in-memory engine at T=1).
func TestSweepSealedPairs(t *testing.T) {
	wg, err := sealWordGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []oracleFamily{
		{name: "clique-ring", g: cliqueRing(40, 12, 1)},
		{name: "word-graph-0.1", g: wg},
	} {
		t.Run(f.name, func(t *testing.T) {
			ref := oracleReference(t, f)
			sorted := Similarity(f.g)
			sorted.Sort()
			want := int64(0)
			for _, s := range replaySeals(f.g, sorted) {
				if s {
					want++
				}
			}
			if n := ref.base.Counter(CtrSweepSealedPairs); n < 1 || n != want {
				t.Fatalf("%s = %d, the replay seals %d pairs: want them equal and at least 1", CtrSweepSealedPairs, n, want)
			}
			runCells(t, f, ref, []int{1, 2, 4, 8}, pathInMemory)
			runCells(t, f, ref, []int{1, 4}, pathSpilled)
			runCells(t, f, ref, []int{2}, pathFrontier, pathFrontierLazy)
		})
	}
}

// TestSweepSealSharedState drives eight resolution workers over windows in
// which many vertices are checked and sealed at once, so that two workers
// check one vertex concurrently through the shared seal words; run it under
// the race detector. The merge stream must stay serial Sweep's and the
// sealed count the single worker's.
func TestSweepSealSharedState(t *testing.T) {
	f := oracleFamily{name: "clique-ring", g: cliqueRing(200, 10, 2)}
	ref := oracleReference(t, f)
	if n := ref.base.Counter(CtrSweepSealedPairs); n < 1 {
		t.Fatalf("%s = %d: no pair was sealed", CtrSweepSealedPairs, n)
	}
	runCells(t, f, ref, []int{8, 8, 8}, pathInMemory)
}

// TestSweepSealNeedsOneCluster pins the other half of the rule: on a star
// every leaf is sealed from the start (its one edge is its own cluster),
// but no two leaves share a cluster until their ops merge them, so no pair
// may be skipped and every leaf pair must still merge as serial Sweep
// merges it.
func TestSweepSealNeedsOneCluster(t *testing.T) {
	f := oracleFamily{name: "star", g: graph.Star(40)}
	ref := oracleReference(t, f)
	if n := ref.base.Counter(CtrSweepSealedPairs); n != 0 {
		t.Fatalf("%s = %d on a star, want 0", CtrSweepSealedPairs, n)
	}
	runCells(t, f, ref, []int{1, 4}, pathInMemory)
}
