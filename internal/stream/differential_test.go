package stream

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
)

// streamTestGraphs returns the graph families of the differential matrix:
// random, planted communities, and a word-association network, sized so the
// full arrival × batch × worker matrix stays fast.
func streamTestGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{
		"erdos-renyi": graph.ErdosRenyi(64, 0.12, rng.New(3)),
	}
	pcfg := planted.DefaultConfig()
	pcfg.Nodes = 90
	pcfg.Communities = 4
	bench, err := planted.Generate(pcfg)
	if err != nil {
		t.Fatalf("planted: %v", err)
	}
	out["planted"] = bench.Graph
	ccfg := corpus.DefaultSynthConfig()
	ccfg.Vocab = 120
	ccfg.Docs = 220
	ccfg.Topics = 4
	wg, err := assoc.Build(corpus.Synthesize(ccfg), 0.5, assoc.Options{EdgePermSeed: 42})
	if err != nil {
		t.Fatalf("assoc: %v", err)
	}
	out["word-association"] = wg
	return out
}

// arrivalsOf converts a graph's edge set (in id order) into a replayable
// arrival sequence.
func arrivalsOf(g *graph.Graph) []Arrival {
	out := make([]Arrival, 0, g.NumEdges())
	for _, e := range g.Edges() {
		out = append(out, Arrival{U: int(e.U), V: int(e.V), W: e.Weight})
	}
	return out
}

// requireSameResult asserts bitwise result equality: the merge stream event
// for event (similarities compared by bits), the summary counts, and the
// final partition element-wise.
func requireSameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if len(got.Merges) != len(want.Merges) {
		t.Fatalf("%s: %d merges, want %d", label, len(got.Merges), len(want.Merges))
	}
	for i := range want.Merges {
		gm, wm := got.Merges[i], want.Merges[i]
		if gm.Level != wm.Level || gm.A != wm.A || gm.B != wm.B || gm.Into != wm.Into ||
			math.Float64bits(gm.Sim) != math.Float64bits(wm.Sim) {
			t.Fatalf("%s: merge %d = %+v, want %+v", label, i, gm, wm)
		}
	}
	if got.Levels != want.Levels {
		t.Fatalf("%s: %d levels, want %d", label, got.Levels, want.Levels)
	}
	if got.PairsProcessed != want.PairsProcessed {
		t.Fatalf("%s: %d ops, want %d", label, got.PairsProcessed, want.PairsProcessed)
	}
	ga, wa := got.Chain.Assignments(), want.Chain.Assignments()
	if len(ga) != len(wa) {
		t.Fatalf("%s: %d assignments, want %d", label, len(ga), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("%s: assignment[%d] = %d, want %d", label, i, ga[i], wa[i])
		}
	}
	if got.NumClusters() != want.NumClusters() {
		t.Fatalf("%s: %d clusters, want %d", label, got.NumClusters(), want.NumClusters())
	}
}

// batchOracle runs the batch pipeline on the prefix graph: the first k
// arrivals of the order replayed into a Builder (identical ids and adjacency
// to the engine's dynamic graph) and clustered serially.
func batchOracle(t *testing.T, n int, arrivals []Arrival, k int) *core.Result {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, a := range arrivals[:k] {
		b.MustAddEdge(a.U, a.V, a.W)
	}
	g := b.Build(nil)
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamDifferential is the tentpole's correctness matrix: each family's
// edge set is streamed in 5 shuffled arrival orders × batch sizes {1, 16,
// all} × worker counts {1, 4, 8}, and every Snapshot must equal — bitwise —
// a batch Similarity + Sweep run on the exact prefix graph.
func TestStreamDifferential(t *testing.T) {
	for name, g := range streamTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := arrivalsOf(g)
			n := g.NumVertices()
			m := len(base)
			for ord := uint64(0); ord < 5; ord++ {
				arrivals := append([]Arrival(nil), base...)
				rng.New(100+ord).Shuffle(len(arrivals), func(i, j int) {
					arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
				})
				oracles := map[int]*core.Result{}
				oracle := func(k int) *core.Result {
					if r, ok := oracles[k]; ok {
						return r
					}
					r := batchOracle(t, n, arrivals, k)
					oracles[k] = r
					return r
				}
				for _, batch := range []int{1, 16, m} {
					// Snapshot at one third, two thirds, and the end,
					// aligned up to batch boundaries.
					points := map[int]bool{}
					for _, p := range []int{m / 3, 2 * m / 3, m} {
						if p > 0 {
							a := ((p + batch - 1) / batch) * batch
							if a > m {
								a = m
							}
							points[a] = true
						}
					}
					points[m] = true
					for _, workers := range []int{1, 4, 8} {
						e, err := New(Options{Workers: workers, MaxVertices: n})
						if err != nil {
							t.Fatal(err)
						}
						for lo := 0; lo < m; lo += batch {
							hi := lo + batch
							if hi > m {
								hi = m
							}
							if err := e.IngestBatch(arrivals[lo:hi]); err != nil {
								t.Fatalf("ord=%d batch=%d T=%d ingest[%d:%d]: %v", ord, batch, workers, lo, hi, err)
							}
							if !points[hi] {
								continue
							}
							res, err := e.Snapshot()
							if err != nil {
								t.Fatalf("ord=%d batch=%d T=%d snapshot@%d: %v", ord, batch, workers, hi, err)
							}
							requireSameResult(t,
								fmt.Sprintf("ord=%d batch=%d T=%d prefix=%d", ord, batch, workers, hi),
								res, oracle(hi))
						}
					}
				}
			}
		})
	}
}

// TestStreamCompactionPolicies covers the duplicate-arrival path, which the
// engine's old compaction triggers had to get right and its one snapshot path
// still must: it streams a graph's edges and then overwrites a slice of them
// with new weights (last write wins on both sides), taking a snapshot after
// every batch. Each one must equal — bitwise — a batch run on the same arrival
// prefix replayed through a Builder.
func TestStreamCompactionPolicies(t *testing.T) {
	g := graph.ErdosRenyi(64, 0.12, rng.New(3))
	arrivals := arrivalsOf(g)
	m := len(arrivals)
	t.Run("overwrites", func(t *testing.T) {
		seq := append([]Arrival(nil), arrivals...)
		src := rng.New(9)
		for i := 0; i < 30; i++ {
			d := arrivals[src.Intn(m)]
			d.W = 0.25 + src.Float64()
			seq = append(seq, d)
		}
		e, err := New(Options{Workers: 4, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(seq); lo += 8 {
			hi := min(lo+8, len(seq))
			if err := e.IngestBatch(seq[lo:hi]); err != nil {
				t.Fatal(err)
			}
			res, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("prefix=%d", hi), res, batchOracle(t, g.NumVertices(), seq, hi))
		}
	})
}

// TestStreamSmallBatchLiveOps drives many small batches through the engine.
// After every ingest the maintained op count live must equal the list's Σ N,
// and every snapshot must stay bitwise equal to the batch oracle.
func TestStreamSmallBatchLiveOps(t *testing.T) {
	graphs := streamTestGraphs(t)
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"erdos-renyi", 4},
		{"word-association", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graphs[tc.name]
			arrivals := arrivalsOf(g)
			e, err := New(Options{Workers: 4, MaxVertices: g.NumVertices()})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(arrivals); lo += tc.batch {
				hi := min(lo+tc.batch, len(arrivals))
				if err := e.IngestBatch(arrivals[lo:hi]); err != nil {
					t.Fatal(err)
				}
				var ops int64
				for _, p := range e.pl {
					ops += int64(p.N)
				}
				if ops != e.live {
					t.Fatalf("prefix=%d: live = %d, list holds %d ops", hi, e.live, ops)
				}
				res, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("prefix=%d", hi), res,
					batchOracle(t, g.NumVertices(), arrivals, hi))
			}
		})
	}
}

// TestStreamAutoGrow checks the unbounded-vertex mode: arrivals extend the
// vertex set on demand and the snapshot still matches a batch run on a
// Builder sized to the final vertex count.
func TestStreamAutoGrow(t *testing.T) {
	g := graph.ErdosRenyi(50, 0.15, rng.New(8))
	arrivals := arrivalsOf(g)
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arrivals {
		if err := e.Ingest(a.U, a.V, a.W); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}
	res, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Graph().NumVertices(), g.NumVertices(); got != want {
		t.Fatalf("auto-grown to %d vertices, want %d", got, want)
	}
	requireSameResult(t, "auto-grow", res, batchOracle(t, g.NumVertices(), arrivals, len(arrivals)))
}

// TestStreamValidation pins the typed rejections and their batch atomicity:
// an invalid arrival anywhere in a batch leaves the engine exactly as
// before.
func TestStreamValidation(t *testing.T) {
	e, err := New(Options{MaxVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	before, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		batch []Arrival
		want  error
	}{
		{[]Arrival{{U: 0, V: 8, W: 1}}, graph.ErrVertexRange},
		{[]Arrival{{U: -1, V: 2, W: 1}}, graph.ErrVertexRange},
		{[]Arrival{{U: 3, V: 3, W: 1}}, graph.ErrSelfLoop},
		{[]Arrival{{U: 0, V: 2, W: 0}}, graph.ErrBadWeight},
		{[]Arrival{{U: 0, V: 2, W: math.NaN()}}, graph.ErrBadWeight},
		{[]Arrival{{U: 0, V: 2, W: math.Inf(1)}}, graph.ErrBadWeight},
		// Valid head, invalid tail: nothing of the batch may land.
		{[]Arrival{{U: 2, V: 3, W: 1}, {U: 4, V: 4, W: 1}}, graph.ErrSelfLoop},
	}
	for i, tc := range bad {
		if err := e.IngestBatch(tc.batch); !errors.Is(err, tc.want) {
			t.Errorf("batch %d: err = %v, want %v", i, err, tc.want)
		}
	}
	if e.Graph().NumEdges() != 1 {
		t.Fatalf("rejected batches changed the graph: %d edges", e.Graph().NumEdges())
	}
	after, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after rejections", after, before)
}
