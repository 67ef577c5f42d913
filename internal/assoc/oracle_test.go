package assoc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// The string-keyed corpus and the map-based pair counting that the interned
// corpus and the row accumulator replaced, kept verbatim (bar their names,
// and countPairs's serial path only) as the differential oracle for
// FuzzWordGraphOracle: every text yields the same vocabulary, documents and
// word graph, edge ids and weight bits included, under both.

// oracleCorpus is the corpus before term interning.
type oracleCorpus struct {
	docs    []corpus.Document
	docFreq map[string]int
}

func newOracleCorpus() *oracleCorpus {
	return &oracleCorpus{docFreq: make(map[string]int)}
}

func (c *oracleCorpus) NumDocs() int              { return len(c.docs) }
func (c *oracleCorpus) Doc(i int) corpus.Document { return c.docs[i] }
func (c *oracleCorpus) DocFreq(t string) int      { return c.docFreq[t] }

func (c *oracleCorpus) addProcessed(doc corpus.Document) {
	c.docs = append(c.docs, doc)
	for _, t := range doc {
		c.docFreq[t]++
	}
}

func (c *oracleCorpus) Vocabulary() []string {
	terms := make([]string, 0, len(c.docFreq))
	for t := range c.docFreq {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		fi, fj := c.docFreq[terms[i]], c.docFreq[terms[j]]
		if fi != fj {
			return fi > fj
		}
		return terms[i] < terms[j]
	})
	return terms
}

func (c *oracleCorpus) AddDocument(raw string) {
	doc := corpus.Process(raw)
	if len(doc) == 0 {
		return
	}
	c.addProcessed(doc)
}

func oracleBuild(c *oracleCorpus, alpha float64, opts Options) (*graph.Graph, error) {
	if c.NumDocs() == 0 {
		return nil, fmt.Errorf("assoc: corpus has no documents")
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("assoc: fraction alpha %v outside (0,1]", alpha)
	}
	vocab := c.Vocabulary()
	keep := int(math.Ceil(alpha * float64(len(vocab))))
	if keep < 1 {
		keep = 1
	}
	if keep > len(vocab) {
		keep = len(vocab)
	}
	selected := vocab[:keep]
	return oracleBuildFromWords(c, selected, opts)
}

func oracleBuildFromWords(c *oracleCorpus, words []string, opts Options) (*graph.Graph, error) {
	if c.NumDocs() == 0 {
		return nil, fmt.Errorf("assoc: corpus has no documents")
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("assoc: empty word set")
	}
	index := make(map[string]int32, len(words))
	for i, w := range words {
		if _, dup := index[w]; dup {
			return nil, fmt.Errorf("assoc: duplicate word %q", w)
		}
		index[w] = int32(i)
	}

	pairCount := oracleCountPairs(c, index)

	minCount := opts.MinPairCount
	if minCount < 1 {
		minCount = 1
	}
	keys := make([]uint64, 0, len(pairCount))
	for key := range pairCount {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	m := float64(c.NumDocs())
	b := graph.NewLabeledBuilder(words)
	for _, key := range keys {
		cnt := pairCount[key]
		if cnt < minCount {
			continue
		}
		u, v := unpackPair(key)
		joint := float64(cnt) / m
		pu := float64(c.DocFreq(words[u])) / m
		pv := float64(c.DocFreq(words[v])) / m
		w := joint * math.Log(joint/(pu*pv))
		if w > 0 {
			if err := b.AddEdge(int(u), int(v), w); err != nil {
				return nil, fmt.Errorf("assoc: %w", err)
			}
		}
	}

	var perm []int
	if opts.EdgePermSeed != 0 {
		perm = rng.New(opts.EdgePermSeed).Perm(b.NumEdges())
	}
	return b.Build(perm), nil
}

func oracleCountPairs(c *oracleCorpus, index map[string]int32) map[uint64]int {
	out := make(map[uint64]int)
	var ids []int32
	for d := 0; d < c.NumDocs(); d++ {
		doc := c.Doc(d)
		ids = ids[:0]
		for _, t := range doc {
			if id, ok := index[t]; ok {
				ids = append(ids, id)
			}
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				out[pairKey(ids[i], ids[j])]++
			}
		}
	}
	return out
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(k uint64) (int32, int32) {
	return int32(k >> 32), int32(uint32(k))
}

// checkSameCorpus fails unless c and o hold the same documents, vocabulary
// and document frequencies.
func checkSameCorpus(t *testing.T, c *corpus.Corpus, o *oracleCorpus) {
	t.Helper()
	if c.NumDocs() != o.NumDocs() {
		t.Fatalf("NumDocs %d, oracle %d", c.NumDocs(), o.NumDocs())
	}
	for i := 0; i < c.NumDocs(); i++ {
		if !slices.Equal(c.Doc(i), o.Doc(i)) {
			t.Fatalf("Doc(%d) = %q, oracle %q", i, c.Doc(i), o.Doc(i))
		}
	}
	vocab := c.Vocabulary()
	if want := o.Vocabulary(); !slices.Equal(vocab, want) {
		t.Fatalf("Vocabulary = %q, oracle %q", vocab, want)
	}
	for _, w := range append(vocab, "zzabsent") {
		if got, want := c.DocFreq(w), o.DocFreq(w); got != want {
			t.Fatalf("DocFreq(%q) = %d, oracle %d", w, got, want)
		}
	}
}

// checkSameGraph fails unless g and want agree in labels, edges (weights
// bitwise) and adjacency, or both are nil with the same error.
func checkSameGraph(t *testing.T, g *graph.Graph, err error, want *graph.Graph, wantErr error) {
	t.Helper()
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		return
	}
	if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("shape %d/%d, oracle %d/%d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Label(v) != want.Label(v) {
			t.Fatalf("label %d = %q, oracle %q", v, g.Label(v), want.Label(v))
		}
		a, b := g.Neighbors(v), want.Neighbors(v)
		if !slices.EqualFunc(a, b, func(x, y graph.Half) bool {
			return x.To == y.To && x.Edge == y.Edge && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
		}) {
			t.Fatalf("adjacency of %d = %v, oracle %v", v, a, b)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		x, y := g.Edge(e), want.Edge(e)
		if x.U != y.U || x.V != y.V || math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			t.Fatalf("edge %d = %+v, oracle %+v", e, x, y)
		}
	}
}

// FuzzWordGraphOracle feeds the same raw lines to the interned corpus and
// the oracle corpus and builds both word graphs at the same fraction,
// MinPairCount and EdgePermSeed; then again over the selected words in
// reverse with a word absent from the corpus, so rows run in an order other
// than the vocabulary's.
func FuzzWordGraphOracle(f *testing.F) {
	f.Add("The clusters are CLUSTERING the networks\nnetwork graphs, graph theory!\n#graphs of networks", uint8(99), uint8(0), uint64(0))
	f.Add("\u212Aelvin kelvin KELVIN\n\u0130stanbul istanbul \xff\xfeistanbul\nthe and of\n", uint8(49), uint8(1), uint64(7))
	f.Add("aa bb cc aa bb\nbb cc dd\naa cc dd ee\naa bb\nee ff aa\nff ee dd cc bb aa", uint8(30), uint8(2), uint64(3))
	f.Add(strings.Join(corpus.SynthesizeRaw(corpus.SynthConfig{Vocab: 30, Topics: 3, Docs: 20, MinLen: 3, MaxLen: 6, ZipfExponent: 1.1, TopicMixture: 0.6, Seed: 5}), "\n"), uint8(19), uint8(0), uint64(11))
	f.Fuzz(func(t *testing.T, text string, alphaPct, minCount uint8, seed uint64) {
		c, o := corpus.New(), newOracleCorpus()
		for _, line := range strings.Split(text, "\n") {
			c.AddDocument(line)
			o.AddDocument(line)
		}
		checkSameCorpus(t, c, o)

		alpha := float64(alphaPct%100+1) / 100
		opts := Options{MinPairCount: int(minCount % 4), EdgePermSeed: seed}
		g, err := Build(c, alpha, opts)
		want, wantErr := oracleBuild(o, alpha, opts)
		checkSameGraph(t, g, err, want, wantErr)
		if err != nil {
			return
		}
		words := make([]string, g.NumVertices())
		for v := range words {
			words[len(words)-1-v] = g.Label(v)
		}
		words = append(words, "zzabsent")
		g, err = BuildFromWords(c, words, opts)
		want, wantErr = oracleBuildFromWords(o, words, opts)
		checkSameGraph(t, g, err, want, wantErr)
	})
}
