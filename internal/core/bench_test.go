package core

import (
	"strings"
	"sync"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
)

// smallPresetGraph builds, once, the word graph of the small experiment
// preset (4,000 words, 6,000 synthetic tweets over 16 topics, fed through
// AddDocument) at vertex fraction 0.2: about 30k edges, the size of the
// largest cold jobs of the end-to-end benchmark's daemon workload.
var smallPresetGraph = sync.OnceValues(func() (*graph.Graph, error) {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics = 4000, 6000, 16
	synth := corpus.Synthesize(cfg)
	c := corpus.New()
	for i := 0; i < synth.NumDocs(); i++ {
		c.AddDocument(strings.Join(synth.Doc(i), " "))
	}
	return assoc.Build(c, 0.2, assoc.Options{})
})

// BenchmarkSweepUnsorted times the windowed engine, sort included, on
// Phase I's unsorted output against the same sweep of a pre-sorted list.
// The unsorted sweep sorts only the buckets before closure; the difference
// between the two is what is left of the K1·log K1 sort. Each iteration
// sweeps a fresh copy of the pair headers; the copy is not timed.
func BenchmarkSweepUnsorted(b *testing.B) {
	g, err := smallPresetGraph()
	if err != nil {
		b.Fatal(err)
	}
	master := Similarity(g)
	sorted := &PairList{Pairs: append([]Pair(nil), master.Pairs...)}
	sorted.Sort()
	for _, tc := range []struct {
		name string
		src  *PairList
	}{{"unsorted", master}, {"presorted", sorted}} {
		b.Run(tc.name, func(b *testing.B) {
			pl := &PairList{Pairs: make([]Pair, len(tc.src.Pairs))}
			b.ReportMetric(float64(len(pl.Pairs)), "pairs")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(pl.Pairs, tc.src.Pairs)
				pl.sorted = tc.src.sorted
				b.StartTimer()
				if _, err := SweepParallel(g, pl, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
