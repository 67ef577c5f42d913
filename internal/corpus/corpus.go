// Package corpus provides the text-processing substrate of the paper's
// evaluation pipeline: tokenization, stop-word removal, Porter stemming, and
// a deterministic synthetic tweet generator standing in for the proprietary
// December-2011 Twitter dataset (see DESIGN.md §2 for the substitution
// rationale).
//
// A Corpus is an ordered collection of documents; each document is the
// multiset of *distinct* stemmed terms that appear in it, because the
// word-association weights of Eq. (3) are defined on per-document presence
// indicator variables X_f.
package corpus

import (
	"bufio"
	"cmp"
	"io"
	"slices"
	"strings"

	"linkclust/internal/stem"
)

// Document is the set of distinct processed terms of one message, in
// first-appearance order.
type Document []string

// dropped marks a token in the token cache that yields no term.
const dropped = -1

// Corpus is an ordered set of processed documents plus corpus-level term
// statistics. Terms are interned once: a term id indexes terms and docFreq,
// and documents are stored flat, as term strings (for Doc) and as term ids
// (for DocIDs), both cut at offs.
type Corpus struct {
	terms   []string         // id → term
	docFreq []int32          // id → number of documents containing the term
	ids     map[string]int32 // term → id
	// tokens caches AddDocument's per-token work: lowercase token → term
	// id, or dropped. Stop-word checks and stemming run once per distinct
	// token.
	tokens map[string]int32
	// stamp[id] is 1 + the index of the last document holding id: the
	// within-document de-duplication.
	stamp []int32

	docTerms []string
	docIDs   []int32
	offs     []int32 // document i is docTerms[offs[i]:offs[i+1]]
	lower    []byte  // AddDocument's lowercasing buffer
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{ids: make(map[string]int32), tokens: make(map[string]int32), offs: []int32{0}}
}

// NumDocs returns the number of documents.
func (c *Corpus) NumDocs() int { return len(c.offs) - 1 }

// Doc returns the i-th document. The returned slice is owned by the corpus.
func (c *Corpus) Doc(i int) Document {
	lo, hi := c.offs[i], c.offs[i+1]
	return c.docTerms[lo:hi:hi]
}

// DocIDs returns the term ids of the i-th document, in Doc's order. The
// returned slice is owned by the corpus.
func (c *Corpus) DocIDs(i int) []int32 {
	lo, hi := c.offs[i], c.offs[i+1]
	return c.docIDs[lo:hi:hi]
}

// NumTerms returns the number of distinct terms; term ids are
// 0..NumTerms()-1.
func (c *Corpus) NumTerms() int { return len(c.terms) }

// TermID returns the id of term t, if t occurs in the corpus.
func (c *Corpus) TermID(t string) (int32, bool) {
	id, ok := c.ids[t]
	return id, ok
}

// DocFreq returns the number of documents containing term t.
func (c *Corpus) DocFreq(t string) int {
	if id, ok := c.ids[t]; ok {
		return int(c.docFreq[id])
	}
	return 0
}

// Vocabulary returns all distinct terms sorted by non-ascending document
// frequency, ties broken lexicographically — the candidate-word order the
// paper uses to pick the top fraction α.
func (c *Corpus) Vocabulary() []string {
	order := c.vocabularyIDs()
	terms := make([]string, len(order))
	for i, id := range order {
		terms[i] = c.terms[id]
	}
	return terms
}

// vocabularyIDs returns every term id in Vocabulary's order.
func (c *Corpus) vocabularyIDs() []int32 {
	order := make([]int32, len(c.terms))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if fa, fb := c.docFreq[a], c.docFreq[b]; fa != fb {
			return cmp.Compare(fb, fa)
		}
		return strings.Compare(c.terms[a], c.terms[b])
	})
	return order
}

// AddDocument tokenizes, filters, and stems raw text, and appends the
// resulting document if it contains at least one term. The result is
// Process(raw).
func (c *Corpus) AddDocument(raw string) {
	c.lower = appendLower(c.lower[:0], raw)
	lower := c.lower
	start := -1
	for i := 0; i <= len(lower); i++ {
		if i < len(lower) && lower[i] >= 'a' && lower[i] <= 'z' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start < 0 {
			continue
		}
		id, ok := c.tokens[string(lower[start:i])]
		if !ok {
			id = c.processToken(string(lower[start:i]))
		}
		start = -1
		if id != dropped {
			c.addTerm(id)
		}
	}
	c.endDoc()
}

// processToken runs Process's filter and stem on one token, interns the
// term it yields, and caches the outcome.
func (c *Corpus) processToken(tok string) int32 {
	id := int32(dropped)
	if len(tok) >= 2 && !IsStopWord(tok) {
		if t := stem.Porter(tok); len(t) >= 2 && !IsStopWord(t) {
			id = c.intern(t)
		}
	}
	c.tokens[tok] = id
	return id
}

// AddTerms appends an already-processed term sequence as a document,
// de-duplicating terms. Used by the synthetic generator.
func (c *Corpus) AddTerms(terms []string) {
	for _, t := range terms {
		c.addTerm(c.intern(t))
	}
	c.endDoc()
}

// intern returns the id of term t, assigning the next one to a new term.
func (c *Corpus) intern(t string) int32 {
	if id, ok := c.ids[t]; ok {
		return id
	}
	id := int32(len(c.terms))
	c.ids[t] = id
	c.terms = append(c.terms, t)
	c.docFreq = append(c.docFreq, 0)
	c.stamp = append(c.stamp, 0)
	return id
}

// addTerm appends term id to the open document unless it already holds it.
func (c *Corpus) addTerm(id int32) {
	doc := int32(len(c.offs)) // 1 + the open document's index
	if c.stamp[id] == doc {
		return
	}
	c.stamp[id] = doc
	c.docFreq[id]++
	if n := len(c.docIDs); n == min(cap(c.docIDs), cap(c.docTerms)) {
		// Double: append grows a long slice by a quarter, which copies
		// each entry about five times over the corpus's build.
		c.docIDs = slices.Grow(c.docIDs, max(n, 1024))
		c.docTerms = slices.Grow(c.docTerms, max(n, 1024))
	}
	c.docTerms = append(c.docTerms, c.terms[id])
	c.docIDs = append(c.docIDs, id)
}

// endDoc closes the open document; an empty one is not recorded.
func (c *Corpus) endDoc() {
	if n := int32(len(c.docIDs)); n > c.offs[len(c.offs)-1] {
		c.offs = append(c.offs, n)
	}
}

// ReadLines ingests one document per line from r.
func (c *Corpus) ReadLines(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		c.AddDocument(sc.Text())
	}
	return sc.Err()
}

// Process runs the paper's preprocessing pipeline on one raw message:
// lowercase, tokenize on non-letter boundaries, drop stop words and words
// shorter than two letters, Porter-stem, drop stems that are stop words, and
// de-duplicate while preserving first-appearance order.
func Process(raw string) Document {
	tokens := Tokenize(raw)
	seen := make(map[string]struct{}, len(tokens))
	doc := make(Document, 0, len(tokens))
	for _, tok := range tokens {
		if len(tok) < 2 || IsStopWord(tok) {
			continue
		}
		t := stem.Porter(tok)
		if len(t) < 2 || IsStopWord(t) {
			continue
		}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		doc = append(doc, t)
	}
	return doc
}

// Tokenize lowercases raw and splits it into maximal runs of ASCII letters.
// Twitter artifacts (mentions, URLs, hashtags' leading '#') dissolve into
// their letter runs; purely non-alphabetic tokens disappear.
func Tokenize(raw string) []string {
	lower := strings.ToLower(raw)
	var tokens []string
	start := -1
	for i := 0; i <= len(lower); i++ {
		isLetter := i < len(lower) && lower[i] >= 'a' && lower[i] <= 'z'
		if isLetter {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			tokens = append(tokens, lower[start:i])
			start = -1
		}
	}
	return tokens
}

// appendLower appends strings.ToLower(raw) to dst: byte by byte when raw is
// ASCII, through strings.ToLower otherwise, whose Unicode case mapping can
// turn a non-ASCII letter into an ASCII one (U+212A KELVIN SIGN to 'k').
func appendLower(dst []byte, raw string) []byte {
	for i := 0; i < len(raw); i++ {
		if raw[i] >= 0x80 {
			return append(dst, strings.ToLower(raw)...)
		}
	}
	for i := 0; i < len(raw); i++ {
		b := raw[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		dst = append(dst, b)
	}
	return dst
}
