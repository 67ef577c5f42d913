package corpus

import "math"

// Stats summarizes the corpus-level regularities that make the synthetic
// generator a defensible stand-in for the paper's tweet corpus: document
// volume, vocabulary size, document length, the Zipf exponent of the term
// frequency distribution, and the Heaps exponent of vocabulary growth.
// Natural short-text corpora show Zipf slopes near −1 and Heaps exponents
// around 0.4–0.7; `lcbench -experiment corpus` reports these for the
// harness corpus.
type Stats struct {
	Docs          int
	DistinctTerms int
	// TotalTerms counts term occurrences (distinct per document, matching
	// the per-document presence semantics of Eq. 3).
	TotalTerms int64
	AvgDocLen  float64
	// ZipfExponent is the least-squares slope of log(docFreq) versus
	// log(rank) over the high-frequency vocabulary — about −1 for natural
	// text.
	ZipfExponent float64
	// HeapsExponent is the slope of log(vocabulary) versus log(terms
	// seen) — vocabulary growth V ∝ N^β.
	HeapsExponent float64
}

// ComputeStats scans the corpus once (plus a frequency sort) and returns
// its statistics. Degenerate corpora (no documents, single term) yield zero
// exponents.
func ComputeStats(c *Corpus) Stats {
	s := Stats{Docs: c.NumDocs(), DistinctTerms: c.NumTerms(), TotalTerms: int64(len(c.docIDs))}
	if s.Docs > 0 {
		s.AvgDocLen = float64(s.TotalTerms) / float64(s.Docs)
	}

	// Zipf: regression over the top half of the vocabulary (the tail is
	// dominated by ties at frequency 1, which flatten the slope).
	vocab := c.vocabularyIDs()
	top := len(vocab) / 2
	if top > 2000 {
		top = 2000
	}
	if top >= 3 {
		xs := make([]float64, top)
		ys := make([]float64, top)
		for r := 0; r < top; r++ {
			xs[r] = math.Log(float64(r + 1))
			ys[r] = math.Log(float64(c.docFreq[vocab[r]]))
		}
		s.ZipfExponent = slope(xs, ys)
	}

	// Heaps: vocabulary size sampled along the document stream at
	// geometric checkpoints.
	if s.TotalTerms >= 8 && s.DistinctTerms >= 2 {
		// Documents are stored in order, so the term stream is docIDs.
		seen := make([]bool, s.DistinctTerms)
		distinct := 0
		var xs, ys []float64
		next := int64(4)
		for i, id := range c.docIDs {
			if !seen[id] {
				seen[id] = true
				distinct++
			}
			if tokens := int64(i + 1); tokens >= next {
				xs = append(xs, math.Log(float64(tokens)))
				ys = append(ys, math.Log(float64(distinct)))
				next *= 2
			}
		}
		if len(xs) >= 3 {
			s.HeapsExponent = slope(xs, ys)
		}
	}
	return s
}

// slope returns the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
