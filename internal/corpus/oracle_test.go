package corpus

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// The string-keyed corpus and ComputeStats that term interning replaced,
// kept verbatim (bar their names) as the oracle for the tests below.

type oracleCorpus struct {
	docs    []Document
	docFreq map[string]int
}

func newOracleCorpus() *oracleCorpus {
	return &oracleCorpus{docFreq: make(map[string]int)}
}

func (c *oracleCorpus) NumDocs() int         { return len(c.docs) }
func (c *oracleCorpus) Doc(i int) Document   { return c.docs[i] }
func (c *oracleCorpus) DocFreq(t string) int { return c.docFreq[t] }

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
	doc := Process(raw)
	if len(doc) == 0 {
		return
	}
	c.addProcessed(doc)
}

func (c *oracleCorpus) AddTerms(terms []string) {
	if len(terms) == 0 {
		return
	}
	seen := make(map[string]struct{}, len(terms))
	doc := make(Document, 0, len(terms))
	for _, t := range terms {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		doc = append(doc, t)
	}
	c.addProcessed(doc)
}

func (c *oracleCorpus) addProcessed(doc Document) {
	c.docs = append(c.docs, doc)
	for _, t := range doc {
		c.docFreq[t]++
	}
}

func oracleComputeStats(c *oracleCorpus) Stats {
	s := Stats{Docs: c.NumDocs(), DistinctTerms: len(c.docFreq)}
	for d := 0; d < c.NumDocs(); d++ {
		s.TotalTerms += int64(len(c.Doc(d)))
	}
	if s.Docs > 0 {
		s.AvgDocLen = float64(s.TotalTerms) / float64(s.Docs)
	}

	vocab := c.Vocabulary()
	top := len(vocab) / 2
	if top > 2000 {
		top = 2000
	}
	if top >= 3 {
		xs := make([]float64, top)
		ys := make([]float64, top)
		for r := 0; r < top; r++ {
			xs[r] = math.Log(float64(r + 1))
			ys[r] = math.Log(float64(c.DocFreq(vocab[r])))
		}
		s.ZipfExponent = slope(xs, ys)
	}

	if s.TotalTerms >= 8 && s.DistinctTerms >= 2 {
		seen := make(map[string]struct{}, s.DistinctTerms)
		var tokens int64
		var xs, ys []float64
		next := int64(4)
		for d := 0; d < c.NumDocs(); d++ {
			for _, t := range c.Doc(d) {
				tokens++
				seen[t] = struct{}{}
				if tokens >= next {
					xs = append(xs, math.Log(float64(tokens)))
					ys = append(ys, math.Log(float64(len(seen))))
					next *= 2
				}
			}
		}
		if len(xs) >= 3 {
			s.HeapsExponent = slope(xs, ys)
		}
	}
	return s
}

// oracleCorpora builds the same synthetic corpus twice into c and o: the
// processed documents through AddTerms, then their raw text (with stop
// words, hashtags, upper case and non-ASCII letters added) through
// AddDocument.
func oracleCorpora() (*Corpus, *oracleCorpus) {
	cfg := SynthConfig{Vocab: 1500, Topics: 8, Docs: 3000, MinLen: 3, MaxLen: 10, ZipfExponent: 1.05, TopicMixture: 0.7, MainstreamProb: 0.3, MainstreamFrac: 0.05, Seed: 13}
	synth := Synthesize(cfg)
	c, o := New(), newOracleCorpus()
	for i := 0; i < synth.NumDocs(); i++ {
		c.AddTerms(synth.Doc(i))
		o.AddTerms(synth.Doc(i))
	}
	for i, raw := range SynthesizeRaw(cfg) {
		switch i % 4 {
		case 1:
			raw = "THE " + raw + " \u00D6konomie"
		case 2:
			raw += " \u212Aelvin \u0130stanbul \xff"
		}
		c.AddDocument(raw)
		o.AddDocument(raw)
	}
	return c, o
}

func TestCorpusMatchesOracle(t *testing.T) {
	c, o := oracleCorpora()
	if c.NumDocs() != o.NumDocs() {
		t.Fatalf("NumDocs %d, oracle %d", c.NumDocs(), o.NumDocs())
	}
	for i := 0; i < c.NumDocs(); i++ {
		if !slices.Equal(c.Doc(i), o.Doc(i)) {
			t.Fatalf("Doc(%d) = %q, oracle %q", i, c.Doc(i), o.Doc(i))
		}
	}
	vocab := c.Vocabulary()
	if !slices.Equal(vocab, o.Vocabulary()) {
		t.Fatal("Vocabulary differs from the oracle's")
	}
	for _, w := range vocab {
		if c.DocFreq(w) != o.DocFreq(w) {
			t.Fatalf("DocFreq(%q) = %d, oracle %d", w, c.DocFreq(w), o.DocFreq(w))
		}
	}
	if c.DocFreq("kelvin") == 0 {
		t.Fatal("U+212A KELVIN SIGN did not lowercase to a k")
	}
}

func TestComputeStatsMatchesOracle(t *testing.T) {
	c, o := oracleCorpora()
	if got, want := ComputeStats(c), oracleComputeStats(o); got != want {
		t.Fatalf("ComputeStats = %+v, oracle %+v", got, want)
	}
}

func TestDocAllocationFree(t *testing.T) {
	c, _ := oracleCorpora()
	n := 0
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < c.NumDocs(); i++ {
			n += len(c.Doc(i))
		}
	}); allocs != 0 {
		t.Fatalf("Doc allocates %v times per pass", allocs)
	}
}
