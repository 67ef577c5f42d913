// Package assoc builds word-association networks from a processed corpus,
// following Section III of the paper: vertices are the top fraction α of
// candidate words by document frequency, and an edge joins words f_i and f_j
// when the mutual-information-style weight of Eq. (3),
//
//	w_ij = p(X_i=1, X_j=1) · log( p(X_i=1, X_j=1) / (p(X_i=1)·p(X_j=1)) ),
//
// is positive, i.e. when the two words co-occur in documents more often than
// independence predicts. Probabilities are maximum-likelihood estimates over
// the document set.
package assoc

import (
	"fmt"
	"math"
	"slices"

	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// Options tunes network construction.
type Options struct {
	// MinPairCount drops word pairs co-occurring in fewer documents; 0 or
	// 1 keeps every co-occurring pair (the paper's behaviour).
	MinPairCount int
	// EdgePermSeed, when non-zero, assigns edge ids in a seeded random
	// permutation, matching the sweeping algorithm's requirement that
	// edges be enumerated "in a random order". Zero keeps construction
	// order.
	EdgePermSeed uint64
}

// Build constructs the word-association graph over the top fraction alpha of
// the corpus vocabulary (by non-ascending document frequency, the paper's
// candidate order). It returns an error when the corpus is empty or alpha is
// outside (0, 1].
func Build(c *corpus.Corpus, alpha float64, opts Options) (*graph.Graph, error) {
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
	return BuildFromWords(c, selected, opts)
}

// BuildFromWords constructs the association graph over an explicit word set.
// Words absent from the corpus are still vertices, just isolated ones.
//
// Edges are inserted in ascending (u, v) word-index order, so edge ids are
// reproducible: each row u counts its co-occurrences with the words v > u in
// a dense accumulator and emits them sorted.
func BuildFromWords(c *corpus.Corpus, words []string, opts Options) (*graph.Graph, error) {
	if c.NumDocs() == 0 {
		return nil, fmt.Errorf("assoc: corpus has no documents")
	}
	if len(words) == 0 {
		return nil, fmt.Errorf("assoc: empty word set")
	}
	// wordOf maps a term id to its word index, or -1.
	wordOf := make([]int32, c.NumTerms())
	for i := range wordOf {
		wordOf[i] = -1
	}
	seen := make(map[string]struct{}, len(words))
	for i, w := range words {
		if _, dup := seen[w]; dup {
			return nil, fmt.Errorf("assoc: duplicate word %q", w)
		}
		seen[w] = struct{}{}
		if id, ok := c.TermID(w); ok {
			wordOf[id] = int32(i)
		}
	}

	docs, posts := selectWords(c, wordOf, len(words))
	minCount := max(opts.MinPairCount, 1)
	m := float64(c.NumDocs())
	p := make([]float64, len(words))
	for u, w := range words {
		p[u] = float64(c.DocFreq(w)) / m
	}
	b := graph.NewLabeledBuilder(words)
	acc := make([]int32, len(words))
	var touched []int32
	for u := range words {
		for _, d := range posts.row(u) {
			for _, v := range docs.row(int(d)) {
				if v <= int32(u) {
					continue
				}
				if acc[v] == 0 {
					touched = append(touched, v)
				}
				acc[v]++
			}
		}
		slices.Sort(touched)
		for _, v := range touched {
			cnt := int(acc[v])
			acc[v] = 0
			if cnt < minCount {
				continue
			}
			joint := float64(cnt) / m
			w := joint * math.Log(joint/(p[u]*p[v]))
			if w > 0 {
				if err := b.AddEdge(u, int(v), w); err != nil {
					return nil, fmt.Errorf("assoc: %w", err)
				}
			}
		}
		touched = touched[:0]
	}

	var perm []int
	if opts.EdgePermSeed != 0 {
		perm = rng.New(opts.EdgePermSeed).Perm(b.NumEdges())
	}
	return b.Build(perm), nil
}

// csr is a list of int32 rows stored flat: row i is vals[offs[i]:offs[i+1]].
type csr struct {
	offs []int32
	vals []int32
}

func (r csr) row(i int) []int32 { return r.vals[r.offs[i]:r.offs[i+1]] }

// selectWords returns each document's selected words (word indices, in
// document order) and each word's postings (the documents holding it, in
// ascending order).
func selectWords(c *corpus.Corpus, wordOf []int32, nWords int) (docs, posts csr) {
	n := c.NumDocs()
	posts.offs = make([]int32, nWords+1)
	for d := 0; d < n; d++ {
		for _, id := range c.DocIDs(d) {
			if u := wordOf[id]; u >= 0 {
				posts.offs[u+1]++
			}
		}
	}
	for u := 0; u < nWords; u++ {
		posts.offs[u+1] += posts.offs[u]
	}
	total := posts.offs[nWords]
	docs.offs = make([]int32, n+1)
	docs.vals = make([]int32, 0, total)
	posts.vals = make([]int32, total)
	next := slices.Clone(posts.offs[:nWords])
	for d := 0; d < n; d++ {
		for _, id := range c.DocIDs(d) {
			if u := wordOf[id]; u >= 0 {
				docs.vals = append(docs.vals, u)
				posts.vals[next[u]] = int32(d)
				next[u]++
			}
		}
		docs.offs[d+1] = int32(len(docs.vals))
	}
	return docs, posts
}
