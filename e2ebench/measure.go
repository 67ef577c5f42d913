package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"linkclust"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
)

// scale fixes the input sizes of every workload.
type scale struct {
	vocab, docs, topics int
	// passFraction is the vertex fraction of corpus-communities' word graph.
	passFraction float64
	// poolFractions are the vertex fractions of daemon-mixed's base graphs.
	// Budgeted jobs rotate through the pool graphs at indices spillOf; every
	// cycle resubmits those at resubmitOf and runs coarse jobs on those at
	// coarseOf.
	poolFractions                 []float64
	spillOf, resubmitOf, coarseOf []int
	// streamEdges sizes stream-trickle's word graph: the fewest top words
	// whose graph has at least this many edges, so the size hardly moves
	// with the seed. The last trickle edges arrive in batches of batch after
	// the warm set-up.
	streamEdges    int
	trickle, batch int
	// setups is how many times stream-trickle's set-up runs per stretch.
	setups int
}

// fullScale is the small preset of the experiment harness (4000 words, 6000
// documents, 16 topics): fraction 0.1 gives ≈11k edges and K2 ≈ 0.9M, and the
// daemon pool spans ≈0.9k–22k edges, on both sides of core.SweepAutoMinOps.
var fullScale = scale{
	vocab: 4000, docs: 6000, topics: 16,
	passFraction:  0.1,
	poolFractions: []float64{0.02, 0.04, 0.07, 0.1, 0.17, 0.2},
	spillOf:       []int{2, 3},
	resubmitOf:    []int{3, 5},
	coarseOf:      []int{2, 4},
	streamEdges:   12000,
	trickle:       1600, batch: 16,
	setups: 9,
}

// referenceFunc returns the SHA-256 of the merge stream the serial reference
// produces on g: Algorithm 1 then Algorithm 2, or the coarse-grained sweep
// with default parameters when coarseSweep is set.
type referenceFunc func(g *graph.Graph, coarseSweep bool) (string, error)

// env is what every stretch of one benchmark run shares.
type env struct {
	seed      uint64
	workers   int
	scale     scale
	workDir   string
	reference referenceFunc
	// info collects the facts recorded next to the results.
	info map[string]any
}

// errMismatch marks an operation whose output differs from the reference.
var errMismatch = errors.New("output differs from the serial reference")

// opFailed logs a failed operation; the caller counts it.
func opFailed(what string, err error) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", what, err)
}

// stretch is one measured stretch of a workload.
type stretch struct {
	lat, cold []float64 // per-op latency, all ops and ops not served from a result cache
	busy      float64   // seconds the timed ops took in total, wall clock
	setups    []float64
	peakHeap  uint64
	attempted int
	failed    int
	layers    map[string]float64 // per-layer metrics (traced stretches)
}

func newStretch() *stretch { return &stretch{layers: map[string]float64{}} }

func (s *stretch) endToEnd(name string) (float64, error) {
	var v float64
	switch name {
	case "setup_s":
		v = median(s.setups)
	case "latency_p50_s":
		v = median(s.lat)
	case "latency_p90_s":
		v = quantile(s.lat, 0.9)
	case "cold_latency_p50_s":
		v = median(s.cold)
	case "ops_per_s":
		if s.busy > 0 {
			v = float64(len(s.lat)) / s.busy
		}
	case "peak_heap_bytes":
		v = float64(s.peakHeap)
	}
	if v == 0 || math.IsNaN(v) {
		return 0, fmt.Errorf("end-to-end metric %s: %w", name, errNoSamples)
	}
	return v, nil
}

// span is one traced call into a layer: times are seconds since the tracer
// started, and Parent is the id of the span that caused it (0 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// settleHeap collects and raises peakHeap to the live heap. A workload calls
// it, outside timing, where it holds its largest state: a collection the
// benchmark forces reads the same on every run, while the live heap sampled
// between the collector's own cycles depends on when they happened to end.
func (s *stretch) settleHeap() {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	s.peakHeap = max(s.peakHeap, m[0].Value.Uint64())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile interpolates linearly between order statistics; NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// mergesSHA hashes a merge stream in the LCMG form the daemon serves.
func mergesSHA(nEdges int, merges []core.Merge) (string, error) {
	h := sha256.New()
	if err := core.WriteMerges(h, nEdges, merges); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func serialReference(g *graph.Graph, coarseSweep bool) (string, error) {
	pl := core.Similarity(g)
	if coarseSweep {
		res, err := coarse.Sweep(g, pl, coarse.DefaultParams())
		if err != nil {
			return "", err
		}
		return mergesSHA(g.NumEdges(), res.Merges)
	}
	res, err := core.Sweep(g, pl)
	if err != nil {
		return "", err
	}
	return mergesSHA(g.NumEdges(), res.Merges)
}

// tweetLines renders the seeded topical corpus as one line of text per
// document: the tweet text every workload's inputs are built from.
func tweetLines(sc scale, seed uint64) []string {
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics, cfg.Seed = sc.vocab, sc.docs, sc.topics, seed
	c := corpus.Synthesize(cfg)
	lines := make([]string, c.NumDocs())
	for i := range lines {
		lines[i] = strings.Join(c.Doc(i), " ")
	}
	return lines
}

// wordGraph builds the word-association graph of the lines at a vertex
// fraction, through the calls a library user makes.
func wordGraph(lines []string, fraction float64) (*graph.Graph, error) {
	c := linkclust.NewCorpus()
	for _, l := range lines {
		c.AddDocument(l)
	}
	return linkclust.BuildWordGraph(c, fraction, linkclust.AssocOptions{})
}

// wordGraphWithEdges builds the word-association graph over the fewest top
// words whose graph has at least minEdges edges (all words when none has).
func wordGraphWithEdges(lines []string, minEdges int) (*graph.Graph, error) {
	c := linkclust.NewCorpus()
	for _, l := range lines {
		c.AddDocument(l)
	}
	words := len(c.Vocabulary())
	build := func(k int) (*graph.Graph, error) {
		// BuildWordGraph keeps ceil(fraction·words) words.
		return linkclust.BuildWordGraph(c, (float64(k)-0.5)/float64(words), linkclust.AssocOptions{})
	}
	lo, hi := 1, words // edges grow with the word count
	for lo < hi {
		mid := (lo + hi) / 2
		g, err := build(mid)
		if err != nil {
			return nil, err
		}
		if g.NumEdges() >= minEdges {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return build(lo)
}

// theorem2 holds the denominators of the paper's Theorem 2 cost terms for
// one graph: K1·log2 K1 for the sort and √K2·|E| for the sweep.
type theorem2 struct {
	k1, k2, edges float64
}

func theorem2Of(st graph.Stats) theorem2 {
	return theorem2{float64(st.K1), float64(st.K2), float64(st.Edges)}
}

func (t theorem2) sortTerm() float64 {
	if t.k1 < 2 {
		return 1
	}
	return t.k1 * math.Log2(t.k1)
}

func (t theorem2) sweepTerm() float64 { return math.Sqrt(t.k2) * t.edges }

// ratio divides a time in seconds by a cost term, in nanoseconds per unit.
func ratio(seconds, term float64) float64 {
	if term == 0 {
		return 0
	}
	return seconds * 1e9 / term
}
