package dendro

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/baseline"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
)

// scanBestCut is the reference BestCut: a full CutSim and PartitionDensity
// for every distinct merge similarity plus the all-singletons sentinel, in
// descending order, keeping the first strict maximum.
func scanBestCut(g *graph.Graph, d *Dendrogram) (theta float64, density float64, labels []int32) {
	best := -1.0
	candidates := append(d.Thresholds(), singletonTheta)
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, th := range candidates {
		l := d.CutSim(th)
		dens := PartitionDensity(g, l)
		if dens > best {
			best, theta, labels = dens, th, l
		}
	}
	return theta, best, labels
}

// requireScanCut fails unless BestCut returns the scan oracle's theta,
// density bits and labels.
func requireScanCut(t *testing.T, g *graph.Graph, d *Dendrogram) {
	t.Helper()
	theta, dens, labels := BestCut(g, d)
	wantTheta, wantDens, wantLabels := scanBestCut(g, d)
	if theta != wantTheta || math.Float64bits(dens) != math.Float64bits(wantDens) || !slices.Equal(labels, wantLabels) {
		t.Fatalf("BestCut = (theta %v, density %v), scan = (theta %v, density %v), labels equal %v",
			theta, dens, wantTheta, wantDens, slices.Equal(labels, wantLabels))
	}
}

// twoCliques is two K4s sharing vertex 3.
func twoCliques() *graph.Graph {
	b := graph.NewBuilder(7)
	for _, base := range []int{0, 3} {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				b.MustAddEdge(u, v, 1)
			}
		}
	}
	return b.Build(nil)
}

// mergeStreams returns the merge streams of g's dendrogram from the strict
// sweep, the coarse sweep (small chunks, one similarity per chunk), and the
// NBM, MST and SLINK baselines. All describe the same cuts at every
// similarity threshold, in different orders and with different levels;
// SLINK's is not in similarity order.
func mergeStreams(t testing.TB, g *graph.Graph) map[string][]core.Merge {
	t.Helper()
	strict, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	params := coarse.DefaultParams()
	params.Phi, params.Delta0 = 1, 4
	chunked, err := coarse.Sweep(g, core.Similarity(g), params)
	if err != nil {
		t.Fatal(err)
	}
	s := baseline.NewEdgeSim(g, core.Similarity(g))
	nbm, err := baseline.NBM(s)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]core.Merge{
		"strict": strict.Merges,
		"coarse": chunked.Merges,
		"nbm":    nbm.Merges,
		"mst":    baseline.MST(s),
		"slink":  slinkMerges(baseline.SLINK(s)),
	}
}

// slinkMerges turns SLINK's pointer representation into a merge stream in
// point order — not similarity order — with one merge per point that joins
// a higher-indexed point at a positive similarity.
func slinkMerges(r *baseline.SlinkResult) []core.Merge {
	var ms []core.Merge
	for i, lambda := range r.Lambda {
		if lambda < 0 {
			a, b := int32(i), r.Pi[i]
			ms = append(ms, core.Merge{Level: int32(len(ms) + 1), A: a, B: b, Into: min(a, b), Sim: -lambda})
		}
	}
	return ms
}

func TestBestCutMatchesScan(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"two-cliques": twoCliques(),
		"complete":    graph.Complete(7),
		"path":        graph.Path(9),
		"star":        graph.Star(8),
		"matching":    graph.DisjointEdges(5),
		"empty":       graph.NewBuilder(3).Build(nil),
		"paper":       graph.PaperExample(),
		// The near-tie graph of TestPartitionDensityDeterministic.
		"near-tie": graph.ErdosRenyi(300, 0.03, rng.New(9)),
	}
	for seed := uint64(1); seed <= 4; seed++ {
		graphs[fmt.Sprintf("er-%d", seed)] = graph.ErdosRenyi(40, 0.15, rng.New(seed))
	}
	bench, err := planted.Generate(planted.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	graphs["planted"] = bench.Graph

	bySimDesc := func(a, b core.Merge) int { return cmp.Compare(b.Sim, a.Sim) }
	unsorted := 0
	for name, g := range graphs {
		for stream, ms := range mergeStreams(t, g) {
			if !slices.IsSortedFunc(ms, bySimDesc) {
				unsorted++
			}
			t.Run(name+"/"+stream, func(t *testing.T) {
				requireScanCut(t, g, New(g.NumEdges(), ms))
			})
		}
	}
	if unsorted == 0 {
		t.Fatal("no merge stream was out of similarity order; the sorting path went untested")
	}
}

// TestBestCutSingletonTheta pins the theta BestCut reports when the
// all-singletons cut wins: 2, above every similarity.
func TestBestCutSingletonTheta(t *testing.T) {
	theta, dens, labels := BestCut(graph.NewBuilder(0).Build(nil), New(0, nil))
	if theta != 2 || dens != 0 || len(labels) != 0 {
		t.Fatalf("empty dendrogram: theta %v density %v labels %v, want 2, 0, none", theta, dens, labels)
	}
	g := graph.DisjointEdges(4)
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 0 {
		t.Fatalf("perfect matching produced %d merges", len(res.Merges))
	}
	theta, dens, labels = BestCut(g, New(g.NumEdges(), res.Merges))
	if theta != 2 || dens != 0 || !slices.Equal(labels, []int32{0, 1, 2, 3}) {
		t.Fatalf("merge-free graph: theta %v density %v labels %v, want 2, 0, singletons", theta, dens, labels)
	}
}

// TestBestCutNaNSimilarity feeds BestCut a stream with NaN similarities, as
// a merge file may carry: no cut applies those merges, and BestCut must
// still end and agree with the scan.
func TestBestCutNaNSimilarity(t *testing.T) {
	g := twoCliques()
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	ms := append([]core.Merge{{A: 0, B: 11, Sim: nan}}, res.Merges...)
	ms = append(ms, core.Merge{A: 1, B: 10, Sim: nan})
	requireScanCut(t, g, New(g.NumEdges(), ms))
}

// FuzzBestCut builds a small graph from the fuzz input, sweeps it strict
// and coarse, and checks BestCut against the scan oracle bitwise on both
// streams and on the strict stream reversed, which BestCut must sort.
func FuzzBestCut(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{7, 0, 1, 0, 0, 2, 0, 1, 2, 0, 3, 4, 0, 3, 5, 0, 4, 5, 0, 2, 3, 0})
	f.Add([]byte{9, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 7, 4, 0, 2, 0, 2, 6, 5, 6, 1, 6, 7, 3, 7, 8, 4, 8, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%15
		b := graph.NewBuilder(n)
		for i := 1; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				b.MustAddEdge(u, v, 0.25+float64(data[i+2]%8)/4)
			}
		}
		g := b.Build(nil)
		strict, err := core.Sweep(g, core.Similarity(g))
		if err != nil {
			t.Fatal(err)
		}
		params := coarse.DefaultParams()
		params.Phi, params.Delta0 = 1, 1+int64(data[0]%8)
		chunked, err := coarse.Sweep(g, core.Similarity(g), params)
		if err != nil {
			t.Fatal(err)
		}
		requireScanCut(t, g, New(g.NumEdges(), strict.Merges))
		requireScanCut(t, g, New(g.NumEdges(), chunked.Merges))
		slices.Reverse(strict.Merges)
		requireScanCut(t, g, New(g.NumEdges(), strict.Merges))
	})
}

// BenchmarkBestCut cuts the dendrogram of a synthetic-tweet word graph the
// size of the end-to-end benchmark's corpus-communities pass: 4,000 words,
// 6,000 documents, 16 topics, the top tenth of the words.
func BenchmarkBestCut(b *testing.B) {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics = 4000, 6000, 16
	synth := corpus.Synthesize(cfg)
	c := corpus.New()
	for i := 0; i < synth.NumDocs(); i++ {
		c.AddDocument(strings.Join(synth.Doc(i), " "))
	}
	g, err := assoc.Build(c, 0.1, assoc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		b.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestCut(g, d)
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ReportMetric(float64(len(d.Thresholds())), "thresholds")
}
