package linkclust

// testing.B benchmarks, one family per paper table/figure. The lcbench CLI
// prints the full figure-shaped tables; these benchmarks expose the same
// measurements to `go test -bench` tooling on a compact workload sweep.
//
// Benchmark → figure map:
//
//	BenchmarkFig4Init       Fig. 4(2) initialization-phase time
//	BenchmarkFig4Sweeping   Fig. 4(2) sweeping-phase time
//	BenchmarkFig4Standard   Fig. 4(2) standard-algorithm (NBM) time
//	BenchmarkFig4Memory     Fig. 4(3) retained structures (allocs reported)
//	BenchmarkFig5Coarse     Fig. 5(2) coarse-grained sweeping time
//	BenchmarkFig6Init       Fig. 6(1) init speedup vs threads
//	BenchmarkFig6Sweep      Fig. 6(2) sweeping speedup vs threads
//	BenchmarkFig2Trace      Fig. 2(1)/(2) fixed-chunk instrumentation
//	BenchmarkTheoryRegular  appendix k-regular scaling (sweep vs standard)
//	BenchmarkTheoryComplete appendix complete-graph scaling
//	BenchmarkFig1Example    the running example graph end to end

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"linkclust/internal/baseline"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/unionfind"
)

// benchAlphas mirrors the paper's five fractions; the synthetic corpus is
// small enough that the full sweep stays benchable on one machine.
var benchAlphas = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01}

var (
	benchOnce      sync.Once
	benchWorkloads map[float64]*graph.Graph
)

func benchGraph(b *testing.B, alpha float64) *graph.Graph {
	b.Helper()
	benchOnce.Do(func() {
		cfg := corpus.DefaultSynthConfig()
		cfg.Vocab = 3000
		cfg.Docs = 5000
		cfg.Topics = 12
		c := corpus.Synthesize(cfg)
		benchWorkloads = make(map[float64]*graph.Graph, len(benchAlphas))
		for _, a := range benchAlphas {
			eff := a * 100 // same label scaling as the harness
			if eff > 1 {
				eff = 1
			}
			g, err := BuildWordGraph(c, eff, AssocOptions{EdgePermSeed: 42})
			if err != nil {
				panic(err)
			}
			benchWorkloads[a] = g
		}
	})
	g, ok := benchWorkloads[alpha]
	if !ok {
		b.Fatalf("no workload for alpha %v", alpha)
	}
	return g
}

func alphaName(alpha float64) string { return fmt.Sprintf("alpha=%g", alpha) }

func copyPairList(pl *core.PairList) *core.PairList {
	return &core.PairList{Pairs: append([]core.Pair(nil), pl.Pairs...)}
}

func BenchmarkFig4Init(b *testing.B) {
	for _, a := range benchAlphas {
		g := benchGraph(b, a)
		b.Run(alphaName(a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.Similarity(g)
			}
		})
	}
}

func BenchmarkFig4Sweeping(b *testing.B) {
	for _, a := range benchAlphas {
		g := benchGraph(b, a)
		pl := core.Similarity(g)
		b.Run(alphaName(a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(g, copyPairList(pl)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4Standard(b *testing.B) {
	// The standard algorithm only fits the smaller fractions — exactly
	// the paper's situation.
	for _, a := range benchAlphas[:3] {
		g := benchGraph(b, a)
		if g.NumEdges() > baseline.MaxNBMEdges {
			continue
		}
		pl := core.Similarity(g)
		es := baseline.NewEdgeSim(g, pl)
		b.Run(alphaName(a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.NBM(es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4Memory(b *testing.B) {
	// -benchmem's allocated-bytes column is the memory comparison: the
	// sweeping pipeline allocates O(K2+|E|) versus the standard
	// algorithm's O(|E|²) matrix.
	a := benchAlphas[1]
	g := benchGraph(b, a)
	b.Run("sweeping/"+alphaName(a), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl := core.Similarity(g)
			if _, err := core.Sweep(g, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	if g.NumEdges() <= baseline.MaxNBMEdges {
		pl := core.Similarity(g)
		es := baseline.NewEdgeSim(g, pl)
		b.Run("standard/"+alphaName(a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.NBM(es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5Coarse(b *testing.B) {
	for _, a := range benchAlphas {
		g := benchGraph(b, a)
		pl := core.Similarity(g)
		params := coarse.DefaultParams()
		params.Phi = 100
		b.Run(alphaName(a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coarse.Sweep(g, copyPairList(pl), params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6Init(b *testing.B) {
	g := benchGraph(b, 0.005)
	for _, threads := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.SimilarityParallel(g, threads)
			}
		})
	}
}

func BenchmarkFig6Sweep(b *testing.B) {
	g := benchGraph(b, 0.005)
	pl := core.Similarity(g)
	for _, threads := range []int{1, 2, 4, 6} {
		params := coarse.DefaultParams()
		params.Workers = threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coarse.Sweep(g, copyPairList(pl), params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig2Trace(b *testing.B) {
	g := benchGraph(b, 0.001)
	pl := core.Similarity(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coarse.FixedChunks(g, copyPairList(pl), 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheoryRegular(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g, err := graph.Circulant(n, 8)
		if err != nil {
			b.Fatal(err)
		}
		pl := core.Similarity(g)
		es := baseline.NewEdgeSim(g, pl)
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(g, copyPairList(pl)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("standard/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.NBM(es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTheoryComplete(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		g := graph.Complete(n)
		pl := core.Similarity(g)
		es := baseline.NewEdgeSim(g, pl)
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(g, copyPairList(pl)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("standard/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.NBM(es); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1Example(b *testing.B) {
	g := graph.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(g, core.Similarity(g)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarity compares the initialization-phase kernels serially on
// the heaviest workload of the sweep: the legacy global hash-map
// accumulator versus the wedge-major (Gustavson/SPA) row accumulation that
// Similarity now uses. Same output after Sort; the wedge kernel trades
// hash lookups and linked-list chains for dense per-row scratch.
func BenchmarkSimilarity(b *testing.B) {
	g := benchGraph(b, 0.01)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.SimilarityLegacy(g)
		}
	})
	b.Run("wedge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.Similarity(g)
		}
	})
}

// corpusGraph builds, once, a word graph the size of the end-to-end
// benchmark's corpus-communities pass: 4,000 words, 6,000 synthetic tweets
// over 16 topics, fed through AddDocument, the top tenth of the words
// (about 11k edges and 0.9M incident ops).
var corpusGraph = sync.OnceValues(func() (*graph.Graph, error) {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics = 4000, 6000, 16
	synth := corpus.Synthesize(cfg)
	c := corpus.New()
	for i := 0; i < synth.NumDocs(); i++ {
		c.AddDocument(strings.Join(synth.Doc(i), " "))
	}
	return BuildWordGraph(c, 0.1, AssocOptions{})
})

// BenchmarkSweepParallel is the acceptance benchmark of the fine-grained
// sweep: the serial merge loop versus the windowed engine at 1 and 2
// workers on a corpus-communities-sized word graph. Output is bitwise
// identical in all three configurations; the lcbench `sweepkernel`
// experiment records the full thread sweep to BENCH_sweep.json.
func BenchmarkSweepParallel(b *testing.B) {
	g, err := corpusGraph()
	if err != nil {
		b.Fatal(err)
	}
	pl := core.Similarity(g)
	pl.Sort()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Sweep(g, pl); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SweepParallel(g, pl, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamStep times one step of the end-to-end benchmark's
// stream-trickle workload: a 16-edge IngestBatch plus a Snapshot on a warm
// stream over the corpus-communities-sized word graph, whose last 1,600
// edges arrive as the trickle. When the trickle runs out, a fresh engine is
// warmed untimed. It reports the largest ratio over all steps of the Common
// ints the maintained list can keep reachable to its live op count — the
// storage the engine's re-pack bounds.
func BenchmarkStreamStep(b *testing.B) {
	g, err := corpusGraph()
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]Arrival, g.NumEdges())
	for i, e := range g.Edges() {
		arrivals[i] = Arrival{U: int(e.U), V: int(e.V), W: e.Weight}
	}
	const batch, trickle = 16, 1600
	warm := len(arrivals) - trickle
	var eng *Stream
	next := len(arrivals)
	worst := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(arrivals) {
			b.StopTimer()
			if eng, err = NewStream(StreamOptions{}); err == nil {
				err = eng.IngestBatch(arrivals[:warm])
			}
			if err == nil {
				_, err = eng.Snapshot()
			}
			if err != nil {
				b.Fatal(err)
			}
			next = warm
			b.StartTimer()
		}
		if err := eng.IngestBatch(arrivals[next : next+batch]); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Snapshot(); err != nil {
			b.Fatal(err)
		}
		next += batch
		held, live := eng.CommonInts()
		worst = max(worst, float64(held)/float64(live))
	}
	b.ReportMetric(worst, "common-ints/live-op")
}

// BenchmarkPairListSort isolates the K1·log K1 sort that becomes the
// dominant serial fraction once the wedge kernel shrinks accumulation:
// the legacy closure-based sort.Slice-equivalent serial path (workers=1)
// versus the chunked parallel sort with k-way merge.
func BenchmarkPairListSort(b *testing.B) {
	g := benchGraph(b, 0.01)
	pl := core.Similarity(g)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp := copyPairList(pl)
				cp.SortWorkers(workers)
			}
		})
	}
}

// BenchmarkAblationChain compares the paper's chain array C against classic
// union-find structures on the real merge stream of a workload — the
// central data-structure choice of Algorithm 2. The chain pays full-chain
// rewrites per merge (Theorem 2's amortized bound) in exchange for
// min-canonical labels and replica mergeability; union-find defers work to
// finds. Run with -bench AblationChain to see the trade.
func BenchmarkAblationChain(b *testing.B) {
	g := benchGraph(b, 0.001)
	pl := core.Similarity(g)
	pl.Sort()
	var ops [][2]int32
	for i := range pl.Pairs {
		p := &pl.Pairs[i]
		for _, k := range p.Common {
			e1, _ := g.EdgeBetween(int(p.U), int(k))
			e2, _ := g.EdgeBetween(int(p.V), int(k))
			ops = append(ops, [2]int32{e1, e2})
		}
	}
	m := g.NumEdges()
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := core.NewChain(m)
			for _, op := range ops {
				ch.Merge(op[0], op[1])
			}
		}
	})
	b.Run("unionfind-min", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uf := unionfind.NewMin(m)
			for _, op := range ops {
				uf.Union(op[0], op[1])
			}
		}
	})
	b.Run("unionfind-ranked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uf := unionfind.NewRanked(m)
			for _, op := range ops {
				uf.Union(op[0], op[1])
			}
		}
	})
}

// BenchmarkAblationParallelInitMerge isolates the hierarchical map-merge
// step of the parallel initialization (Section VI-A pass 2) by comparing
// worker counts on a fixed graph: the per-worker accumulation shrinks with
// workers while the merge tree grows.
func BenchmarkAblationParallelInitMerge(b *testing.B) {
	g := benchGraph(b, 0.001)
	for _, workers := range []int{1, 2, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.SimilarityParallel(g, workers)
			}
		})
	}
}

// BenchmarkObsOverhead quantifies the cost of the observability layer on
// the hot sweeping phase. "baseline" is the uninstrumented entry point,
// "nil-recorder" the instrumented path with recording disabled (the default
// for every caller that passes no recorder), and "recording" a live
// Recorder. The nil-recorder variant must stay within 2% of baseline:
// instrumentation is phase-granular — a handful of nil checks and closure
// calls per run, never per merge operation.
func BenchmarkObsOverhead(b *testing.B) {
	g := benchGraph(b, 0.001)
	pl := core.Similarity(g)
	pl.Sort()
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Sweep(g, copyPairList(pl)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil-recorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SweepCtx(context.Background(), g, copyPairList(pl), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		b.ReportAllocs()
		rec := obs.New()
		for i := 0; i < b.N; i++ {
			if _, err := core.SweepCtx(context.Background(), g, copyPairList(pl), rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
