package assoc

import (
	"math"
	"strings"
	"testing"

	"linkclust/internal/corpus"
	"linkclust/internal/graph"
)

// tinyCorpus: "x" and "y" always co-occur; "z" appears alone.
func tinyCorpus() *corpus.Corpus {
	c := corpus.New()
	c.AddTerms([]string{"x", "y"})
	c.AddTerms([]string{"x", "y"})
	c.AddTerms([]string{"z"})
	c.AddTerms([]string{"z"})
	return c
}

func TestBuildPositiveAssociation(t *testing.T) {
	g, err := BuildFromWords(tinyCorpus(), []string{"x", "y", "z"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("%d vertices, want 3", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("%d edges, want 1 (only x-y co-occur)", g.NumEdges())
	}
	// w = p_xy * log(p_xy / (p_x p_y)) with p_xy = p_x = p_y = 1/2.
	want := 0.5 * math.Log(0.5/(0.5*0.5))
	got := g.Weight(0, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("weight = %v, want %v", got, want)
	}
}

func TestBuildDropsNonPositivePMI(t *testing.T) {
	// "a" and "b" co-occur exactly as often as independence predicts:
	// p_a = p_b = 1/2, joint = 1/4 over 4 docs -> log term = 0.
	c := corpus.New()
	c.AddTerms([]string{"a", "b"})
	c.AddTerms([]string{"a"})
	c.AddTerms([]string{"b"})
	c.AddTerms([]string{"filler"})
	g, err := BuildFromWords(c, []string{"a", "b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("independence pair produced %d edges, want 0", g.NumEdges())
	}
}

func TestBuildNegativeAssociationDropped(t *testing.T) {
	// "u" and "v" never co-occur: no pair count at all, so no edge.
	c := corpus.New()
	for i := 0; i < 5; i++ {
		c.AddTerms([]string{"u"})
		c.AddTerms([]string{"v"})
	}
	g, err := BuildFromWords(c, []string{"u", "v"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("%d edges, want 0", g.NumEdges())
	}
}

func TestBuildAlphaSelectsTopWords(t *testing.T) {
	c := corpus.New()
	// freq: top 3 times, mid 2, rare 1.
	c.AddTerms([]string{"top", "mid"})
	c.AddTerms([]string{"top", "mid"})
	c.AddTerms([]string{"top", "rare"})
	// alpha = 2/3 keeps ceil(2) = 2 words: top, mid.
	g, err := Build(c, 0.67, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		// ceil(0.67*3) = 3; use smaller alpha for 2.
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	g, err = Build(c, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 {
		t.Fatalf("alpha=0.5 kept %d vertices, want 2", g.NumVertices())
	}
	if g.Label(0) != "top" || g.Label(1) != "mid" {
		t.Fatalf("kept %q %q, want top, mid", g.Label(0), g.Label(1))
	}
}

func TestBuildErrors(t *testing.T) {
	empty := corpus.New()
	if _, err := Build(empty, 0.5, Options{}); err == nil {
		t.Error("empty corpus accepted")
	}
	c := tinyCorpus()
	for _, alpha := range []float64{0, -0.1, 1.5} {
		if _, err := Build(c, alpha, Options{}); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	if _, err := BuildFromWords(c, nil, Options{}); err == nil {
		t.Error("empty word set accepted")
	}
	if _, err := BuildFromWords(c, []string{"x", "x"}, Options{}); err == nil {
		t.Error("duplicate words accepted")
	}
}

func TestMinPairCount(t *testing.T) {
	c := corpus.New()
	c.AddTerms([]string{"p", "q"}) // co-occur once
	c.AddTerms([]string{"r", "s"})
	c.AddTerms([]string{"r", "s"}) // co-occur twice
	for i := 0; i < 10; i++ {
		c.AddTerms([]string{"pad"})
	}
	g1, err := BuildFromWords(c, []string{"p", "q", "r", "s"}, Options{MinPairCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != 1 {
		t.Fatalf("MinPairCount=2 kept %d edges, want 1", g1.NumEdges())
	}
	if _, ok := g1.EdgeBetween(2, 3); !ok {
		t.Fatal("r-s edge missing")
	}
}

func TestEdgePermutationPreservesStructure(t *testing.T) {
	cfg := corpus.SynthConfig{Vocab: 80, Topics: 4, Docs: 800, MinLen: 3, MaxLen: 8, ZipfExponent: 1.1, TopicMixture: 0.7, Seed: 11}
	c := corpus.Synthesize(cfg)
	a, err := Build(c, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(c, 1, Options{EdgePermSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatalf("permuted build changed shape")
	}
	// Same edge set regardless of id assignment.
	for _, e := range a.Edges() {
		if w := b.Weight(int(e.U), int(e.V)); math.Abs(w-e.Weight) > 1e-15 {
			t.Fatalf("edge (%d,%d) weight %v vs %v", e.U, e.V, e.Weight, w)
		}
	}
	sa, sb := graph.ComputeStats(a), graph.ComputeStats(b)
	if sa.K1 != sb.K1 || sa.K2 != sb.K2 {
		t.Fatalf("stats differ under permutation: %+v vs %+v", sa, sb)
	}
}

func TestDensityFallsAsAlphaGrows(t *testing.T) {
	// The paper observes graph density decreasing in alpha (frequent
	// words co-occur more). Verify the synthetic corpus reproduces it.
	cfg := corpus.SynthConfig{Vocab: 2000, Topics: 20, Docs: 8000, MinLen: 4, MaxLen: 10, ZipfExponent: 1.05, TopicMixture: 0.7, MainstreamProb: 0.35, MainstreamFrac: 0.05, Seed: 5}
	c := corpus.Synthesize(cfg)
	var prev float64 = math.Inf(1)
	for _, alpha := range []float64{0.02, 0.1, 0.5} {
		g, err := Build(c, alpha, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := g.Density()
		if d >= prev {
			t.Fatalf("density did not fall: alpha=%v density=%v prev=%v", alpha, d, prev)
		}
		prev = d
	}
}

// BenchmarkBuild times one corpus-communities pass's first two layers at
// that workload's scale: AddDocument over 6,000 tweet lines of the small
// preset corpus (4,000 words, 16 topics), then Build at fraction 0.1.
func BenchmarkBuild(b *testing.B) {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics = 4000, 6000, 16
	synth := corpus.Synthesize(cfg)
	lines := make([]string, synth.NumDocs())
	for i := range lines {
		lines[i] = strings.Join(synth.Doc(i), " ")
	}
	b.ReportAllocs()
	for b.Loop() {
		c := corpus.New()
		for _, l := range lines {
			c.AddDocument(l)
		}
		if _, err := Build(c, 0.1, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuildDeterministicEdgeIDs(t *testing.T) {
	// Edge ids must be identical across Build invocations: edges are
	// inserted in (u, v) order, never in a map's iteration order.
	cfg := corpus.SynthConfig{Vocab: 150, Topics: 4, Docs: 600, MinLen: 3, MaxLen: 8, ZipfExponent: 1.1, TopicMixture: 0.6, Seed: 23}
	c := corpus.Synthesize(cfg)
	a, err := Build(c, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(c, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a.Edge(i), b.Edge(i))
		}
	}
}
