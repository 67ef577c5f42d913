package core

import (
	"fmt"
	"math"
	"testing"

	"linkclust/internal/assoc"
	"linkclust/internal/corpus"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
)

// wedgeTestGraphs returns the differential-test graph families: random
// (Erdős–Rényi at several densities), planted overlapping communities, the
// paper's example, structured families (complete, circulant), and a
// word-association network built from a small synthetic corpus.
func wedgeTestGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{
		"paper-example": graph.PaperExample(),
		"complete-16":   graph.Complete(16),
		"disjoint":      graph.DisjointEdges(6),
		"empty":         graph.NewBuilder(0).Build(nil),
		"edgeless":      graph.NewBuilder(7).Build(nil),
	}
	if g, err := graph.Circulant(48, 6); err == nil {
		out["circulant-48"] = g
	} else {
		t.Fatalf("circulant: %v", err)
	}
	for _, seed := range []uint64{1, 5} {
		out[fmt.Sprintf("erdos-renyi-sparse-%d", seed)] = graph.ErdosRenyi(120, 0.05, rng.New(seed))
		out[fmt.Sprintf("erdos-renyi-dense-%d", seed)] = graph.ErdosRenyi(60, 0.3, rng.New(seed))
	}
	pcfg := planted.DefaultConfig()
	pcfg.Nodes = 150
	pcfg.Communities = 6
	bench, err := planted.Generate(pcfg)
	if err != nil {
		t.Fatalf("planted: %v", err)
	}
	out["planted"] = bench.Graph
	ccfg := corpus.DefaultSynthConfig()
	ccfg.Vocab = 800
	ccfg.Docs = 1500
	ccfg.Topics = 8
	wg, err := assoc.Build(corpus.Synthesize(ccfg), 0.5, assoc.Options{EdgePermSeed: 42})
	if err != nil {
		t.Fatalf("assoc: %v", err)
	}
	out["word-association"] = wg
	return out
}

// requireIdenticalSorted asserts two pair lists are element-wise identical
// after Sort — including bitwise-equal similarities and identical
// common-neighbor counts.
func requireIdenticalSorted(t *testing.T, label string, got, want *PairList) {
	t.Helper()
	got.Sort()
	want.Sort()
	requireIdenticalPreSort(t, label, got, want)
}

// legacyPairList returns the legacy kernel's map M as a pair list, in its
// first-encounter order, without the common-neighbor lists.
func legacyPairList(g *graph.Graph) *PairList {
	legacy := SimilarityLegacy(g)
	pl := &PairList{Pairs: make([]Pair, len(legacy))}
	for i := range legacy {
		pl.Pairs[i] = legacy[i].Pair
	}
	return pl
}

// requireOpsMatchLegacy asserts that the ops AppendOps regenerates for every
// pair of the legacy kernel's map M are exactly its common-neighbor list, in
// ascending order, that their number is the pair's N, and that each op
// carries the ids of edges (U, k) and (V, k).
func requireOpsMatchLegacy(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	var ops []Op
	for _, lp := range SimilarityLegacy(g) {
		ops = AppendOps(ops[:0], g, lp.U, lp.V)
		if len(ops) != len(lp.Common) || int(lp.N) != len(lp.Common) {
			t.Fatalf("%s pair (%d,%d): %d ops and N = %d, legacy lists %v", label, lp.U, lp.V, len(ops), lp.N, lp.Common)
		}
		for j, op := range ops {
			e1, _ := g.EdgeBetween(int(lp.U), int(op.K))
			e2, _ := g.EdgeBetween(int(lp.V), int(op.K))
			if op.K != lp.Common[j] || op.E1 != e1 || op.E2 != e2 {
				t.Fatalf("%s pair (%d,%d) op %d: %+v, want k=%d edges (%d,%d)", label, lp.U, lp.V, j, op, lp.Common[j], e1, e2)
			}
		}
	}
}

// TestWedgeDifferential is the differential test of the kernel swap: the
// wedge-major serial kernel and the wedge-major parallel kernel at 1..8
// workers must produce sorted pair lists element-wise identical to the
// legacy hash-map kernel's on every graph family.
func TestWedgeDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			legacy := legacyPairList(g)
			wedge := Similarity(g)
			requireIdenticalSorted(t, "wedge-serial vs legacy", wedge, legacy)
			for workers := 1; workers <= 8; workers++ {
				pw := SimilarityParallel(g, workers)
				requireIdenticalSorted(t, fmt.Sprintf("wedge-parallel-%d vs legacy", workers), pw, legacy)
			}
		})
	}
}

// TestAppendOpsMatchesLegacy is the differential test of op regeneration:
// on every graph family, the ops AppendOps regenerates for each pair — the
// helper serial Sweep, the coarse work list and the baselines replay, and
// the op sequence the engine's packed intersection must reproduce — are
// exactly the legacy kernel's common-neighbor list, and their number is
// the pair's N in both kernels' output.
func TestAppendOpsMatchesLegacy(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			requireOpsMatchLegacy(t, name, g)
			var ops []Op
			for _, p := range Similarity(g).Pairs {
				if n := len(AppendOps(ops[:0], g, p.U, p.V)); n != int(p.N) {
					t.Fatalf("pair (%d,%d): %d ops regenerated, wedge kernel counted %d", p.U, p.V, n, p.N)
				}
			}
			if err := CheckPairs(g, Similarity(g)); err != nil {
				t.Fatalf("CheckPairs rejected Phase I's own list: %v", err)
			}
		})
	}
}

// TestWedgeUnsortedOrder pins the wedge kernel's deterministic pre-Sort
// contract: pairs appear in (U, V)-lexicographic order, identically for the
// serial and parallel paths.
func TestWedgeUnsortedOrder(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.15, rng.New(11))
	serial := Similarity(g)
	for i := 1; i < len(serial.Pairs); i++ {
		a, b := &serial.Pairs[i-1], &serial.Pairs[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("pairs %d,%d not (U,V)-lexicographic: (%d,%d) then (%d,%d)", i-1, i, a.U, a.V, b.U, b.V)
		}
	}
	for _, workers := range []int{2, 5, 8} {
		requireIdenticalPreSort(t, fmt.Sprintf("workers=%d pre-Sort", workers), SimilarityParallel(g, workers), serial)
	}
}

// TestWedgeRowAccumScratchClean verifies the O(row) reset discipline: after
// a full run the dense scratch must be spotless, or later rows would
// inherit ghost contributions. Exercised indirectly by reusing one graph's
// accumulator across two very different graphs of the same vertex count.
func TestWedgeRowAccumScratchClean(t *testing.T) {
	n := 50
	ra := newRowAccum(n)
	dense := graph.ErdosRenyi(n, 0.4, rng.New(3))
	for u := 0; u < n; u++ {
		if np := ra.enumerateRow(dense, u); np > 0 {
			pairs := make([]Pair, np)
			h := make([]float64, n)
			ra.emitRow(u, h, h, pairs)
		}
		ra.resetMarks(dense, u)
	}
	for v := 0; v < n; v++ {
		if ra.dot[v] != 0 || ra.cnt[v] != 0 || ra.wTo[v] != 0 {
			t.Fatalf("scratch dirty at %d after full run: dot=%v cnt=%d wTo=%v", v, ra.dot[v], ra.cnt[v], ra.wTo[v])
		}
	}
}

// TestWedgeCountMatchesFill cross-checks the sizing pass against the fill
// pass row by row.
func TestWedgeCountMatchesFill(t *testing.T) {
	g := graph.ErdosRenyi(90, 0.2, rng.New(7))
	n := g.NumVertices()
	count := newRowAccum(n)
	fill := newRowAccum(n)
	for u := 0; u < n; u++ {
		pairs := count.countRow(g, u)
		np := fill.enumerateRow(g, u)
		if np != int(pairs) || len(fill.touched) != np {
			t.Fatalf("row %d: count pass %d pairs vs fill pass %d pairs", u, pairs, np)
		}
		if np > 0 {
			ps := make([]Pair, np)
			h := make([]float64, n)
			fill.emitRow(u, h, h, ps)
		}
		fill.resetMarks(g, u)
	}
}

// requireIdenticalPreSort asserts two pair lists are element-wise identical
// in their natural (pre-Sort) order — the parallel kernel's contract is the
// serial kernel's exact master order, not just set equality.
func requireIdenticalPreSort(t *testing.T, label string, got, want *PairList) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		g, w := &got.Pairs[i], &want.Pairs[i]
		if g.U != w.U || g.V != w.V {
			t.Fatalf("%s pair %d: (%d,%d), want (%d,%d)", label, i, g.U, g.V, w.U, w.V)
		}
		if math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			t.Fatalf("%s pair (%d,%d): sim %v, want bitwise-equal %v", label, g.U, g.V, g.Sim, w.Sim)
		}
		if g.N != w.N {
			t.Fatalf("%s pair (%d,%d): N = %d, want %d", label, g.U, g.V, g.N, w.N)
		}
	}
}
