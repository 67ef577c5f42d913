package core

import (
	"fmt"
	"math"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// findPair returns the pair (u,v) from pl, canonicalizing order.
func findPair(t *testing.T, pl *PairList, u, v int32) *Pair {
	t.Helper()
	if u > v {
		u, v = v, u
	}
	for i := range pl.Pairs {
		if pl.Pairs[i].U == u && pl.Pairs[i].V == v {
			return &pl.Pairs[i]
		}
	}
	t.Fatalf("pair (%d,%d) not found", u, v)
	return nil
}

func TestSimilarityPaperExample(t *testing.T) {
	// K_{2,4} with unit weights: hubs 0,1 (degree 4, H2 = 1+4 = 5),
	// leaves 2..5 (degree 2, H2 = 1+2 = 3).
	g := graph.PaperExample()
	pl := Similarity(g)
	if len(pl.Pairs) != 7 {
		t.Fatalf("|M| = %d, want K1 = 7", len(pl.Pairs))
	}
	// Hub pair (0,1): dot = 4 common unit products, not adjacent.
	hub := findPair(t, pl, 0, 1)
	if want := 4.0 / (5 + 5 - 4); math.Abs(hub.Sim-want) > 1e-15 {
		t.Errorf("hub pair sim = %v, want %v", hub.Sim, want)
	}
	if ops := AppendOps(nil, g, 0, 1); hub.N != 4 || len(ops) != 4 || ops[0].K != 2 || ops[3].K != 5 {
		t.Errorf("hub pair N = %d, ops %v, want the 4 leaves", hub.N, ops)
	}
	// Leaf pairs: dot = 2, not adjacent.
	for u := int32(2); u <= 5; u++ {
		for v := u + 1; v <= 5; v++ {
			p := findPair(t, pl, u, v)
			if want := 2.0 / (3 + 3 - 2); math.Abs(p.Sim-want) > 1e-15 {
				t.Errorf("leaf pair (%d,%d) sim = %v, want %v", u, v, p.Sim, want)
			}
			if ops := AppendOps(nil, g, u, v); p.N != 2 || len(ops) != 2 || ops[0].K != 0 || ops[1].K != 1 {
				t.Errorf("leaf pair (%d,%d) N = %d, ops %v, want the hubs 0 and 1", u, v, p.N, ops)
			}
		}
	}
	if n := pl.NumIncidentPairs(); n != 16 {
		t.Errorf("incident pairs = %d, want K2 = 16", n)
	}
}

func TestSimilarityTriangleWithAdjacency(t *testing.T) {
	// A triangle exercises pass 3: every pair is adjacent AND shares a
	// common neighbor. Weights: w01=1, w02=2, w12=3.
	b := graph.NewBuilder(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(0, 2, 2)
	b.MustAddEdge(1, 2, 3)
	g := b.Build(nil)
	pl := Similarity(g)
	if len(pl.Pairs) != 3 {
		t.Fatalf("|M| = %d, want 3", len(pl.Pairs))
	}
	// Vectors per Eq. 2 (index order 0,1,2):
	// a_0 = (1.5, 1, 2), a_1 = (1, 2, 3), a_2 = (2, 3, 2.5)
	vec := [3][3]float64{
		{1.5, 1, 2},
		{1, 2, 3},
		{2, 3, 2.5},
	}
	dot := func(u, v int) float64 {
		var s float64
		for k := 0; k < 3; k++ {
			s += vec[u][k] * vec[v][k]
		}
		return s
	}
	for _, tc := range [][2]int32{{0, 1}, {0, 2}, {1, 2}} {
		u, v := int(tc[0]), int(tc[1])
		want := dot(u, v) / (dot(u, u) + dot(v, v) - dot(u, v))
		p := findPair(t, pl, tc[0], tc[1])
		if math.Abs(p.Sim-want) > 1e-12 {
			t.Errorf("pair (%d,%d) sim = %v, want %v", u, v, p.Sim, want)
		}
	}
}

// bruteForcePairs computes map M and the Eq. (1) similarities directly from
// the Ã vectors, in O(|V|³).
func bruteForcePairs(g *graph.Graph) map[[2]int32]float64 {
	n := g.NumVertices()
	vec := make([][]float64, n)
	for i := 0; i < n; i++ {
		vec[i] = make([]float64, n)
		nb := g.Neighbors(i)
		if len(nb) == 0 {
			continue
		}
		sum := 0.0
		for _, h := range nb {
			vec[i][h.To] = h.Weight
			sum += h.Weight
		}
		vec[i][i] = sum / float64(len(nb))
	}
	dot := func(u, v int) float64 {
		var s float64
		for k := 0; k < n; k++ {
			s += vec[u][k] * vec[v][k]
		}
		return s
	}
	hasCommon := func(u, v int) bool {
		for _, a := range g.Neighbors(u) {
			for _, b := range g.Neighbors(v) {
				if a.To == b.To {
					return true
				}
			}
		}
		return false
	}
	out := make(map[[2]int32]float64)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !hasCommon(u, v) {
				continue
			}
			d := dot(u, v)
			out[[2]int32{int32(u), int32(v)}] = d / (dot(u, u) + dot(v, v) - d)
		}
	}
	return out
}

func TestSimilarityMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		src := rng.New(seed)
		g := graph.ErdosRenyi(25, 0.25, src)
		want := bruteForcePairs(g)
		pl := Similarity(g)
		if len(pl.Pairs) != len(want) {
			t.Fatalf("seed %d: |M| = %d, brute force %d", seed, len(pl.Pairs), len(want))
		}
		for i := range pl.Pairs {
			p := &pl.Pairs[i]
			w, ok := want[[2]int32{p.U, p.V}]
			if !ok {
				t.Fatalf("seed %d: unexpected pair (%d,%d)", seed, p.U, p.V)
			}
			if math.Abs(p.Sim-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("seed %d: pair (%d,%d) sim %v, want %v", seed, p.U, p.V, p.Sim, w)
			}
		}
	}
}

func TestSimilaritySimRange(t *testing.T) {
	// Tanimoto similarity of non-negative vectors lies in (0, 1].
	g := graph.ErdosRenyi(40, 0.2, rng.New(3))
	pl := Similarity(g)
	for i := range pl.Pairs {
		s := pl.Pairs[i].Sim
		if s <= 0 || s > 1+1e-12 || math.IsNaN(s) {
			t.Fatalf("pair %d sim %v outside (0,1]", i, s)
		}
	}
}

func TestSimilarityEmptyAndEdgeless(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(nil),
		graph.NewBuilder(5).Build(nil),
		graph.DisjointEdges(4), // K1 = K2 = 0: no pairs at all
	} {
		pl := Similarity(g)
		if len(pl.Pairs) != 0 {
			t.Fatalf("graph with no incident pairs produced %d pairs", len(pl.Pairs))
		}
	}
}

// TestSimilarityCommonSorted checks that every pair's regenerated common
// neighbors come out strictly ascending, as many as its count N.
func TestSimilarityCommonSorted(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.3, rng.New(8))
	pl := Similarity(g)
	for i, p := range pl.Pairs {
		c := AppendOps(nil, g, p.U, p.V)
		if len(c) != int(p.N) {
			t.Fatalf("pair %d: %d ops regenerated, N = %d", i, len(c), p.N)
		}
		for j := 1; j < len(c); j++ {
			if c[j-1].K >= c[j].K {
				t.Fatalf("pair %d commons not ascending: %v", i, c)
			}
		}
	}
}

func TestPairListSort(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.3, rng.New(4))
	pl := Similarity(g)
	pl.Sort()
	if !pl.Sorted() {
		t.Fatal("Sorted() false after Sort")
	}
	for i := 1; i < len(pl.Pairs); i++ {
		a, b := &pl.Pairs[i-1], &pl.Pairs[i]
		if a.Sim < b.Sim {
			t.Fatalf("pairs %d,%d out of order: %v < %v", i-1, i, a.Sim, b.Sim)
		}
		if a.Sim == b.Sim && (a.U > b.U || (a.U == b.U && a.V >= b.V)) {
			t.Fatalf("tie at %d broken wrongly", i)
		}
	}
}

// TestPairListInvalidate is the regression test for the stale sorted flag:
// Sort is a no-op once the flag is set, so callers that mutate Pairs in
// place must Invalidate before re-sorting or the list silently stays in the
// mutated (wrong) order.
func TestPairListInvalidate(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.3, rng.New(4))
	pl := Similarity(g)
	pl.Sort()
	if len(pl.Pairs) < 3 {
		t.Fatal("workload too small to exercise the regression")
	}
	// Mutate the slice behind Sort's back: reverse into ascending order.
	for i, j := 0, len(pl.Pairs)-1; i < j; i, j = i+1, j-1 {
		pl.Pairs[i], pl.Pairs[j] = pl.Pairs[j], pl.Pairs[i]
	}
	// The stale flag makes this Sort a silent no-op — the historical bug.
	pl.Sort()
	if pl.Pairs[0].Sim >= pl.Pairs[len(pl.Pairs)-1].Sim {
		t.Fatal("mutation did not disorder the list; test is vacuous")
	}
	pl.Invalidate()
	if pl.Sorted() {
		t.Fatal("Sorted() still true after Invalidate")
	}
	pl.Sort()
	if !pl.Sorted() {
		t.Fatal("Sorted() false after re-Sort")
	}
	for i := 1; i < len(pl.Pairs); i++ {
		if pl.Pairs[i-1].Sim < pl.Pairs[i].Sim {
			t.Fatalf("pairs %d,%d out of order after Invalidate+Sort", i-1, i)
		}
	}
}

func TestSimilarityParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		g := graph.ErdosRenyi(60, 0.15, rng.New(seed))
		serial := Similarity(g)
		for _, workers := range []int{2, 3, 4, 7} {
			requireIdenticalSorted(t, fmt.Sprintf("workers=%d", workers), SimilarityParallel(g, workers), serial)
		}
	}
}

func TestSimilarityParallelFallback(t *testing.T) {
	g := graph.PaperExample()
	pl := SimilarityParallel(g, 1)
	if len(pl.Pairs) != 7 {
		t.Fatalf("workers=1 fallback produced %d pairs", len(pl.Pairs))
	}
	pl = SimilarityParallel(g, 0)
	if len(pl.Pairs) != 7 {
		t.Fatalf("workers=0 fallback produced %d pairs", len(pl.Pairs))
	}
}

func TestSimilarityParallelMoreWorkersThanVertices(t *testing.T) {
	g := graph.Complete(4)
	pl := SimilarityParallel(g, 16)
	serial := Similarity(g)
	if len(pl.Pairs) != len(serial.Pairs) {
		t.Fatalf("%d pairs, want %d", len(pl.Pairs), len(serial.Pairs))
	}
}

// TestSimilarityUnweightedIsJaccard: with unit weights, the Tanimoto
// coefficient of Eq. (1)-(2) reduces to Ahn et al.'s original Jaccard
// similarity of inclusive neighborhoods,
// |n+(i) ∩ n+(j)| / |n+(i) ∪ n+(j)| — the vectors become indicator vectors.
func TestSimilarityUnweightedIsJaccard(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		src := rng.New(seed)
		b := graph.NewBuilder(30)
		for u := 0; u < 30; u++ {
			for v := u + 1; v < 30; v++ {
				if src.Float64() < 0.2 {
					b.MustAddEdge(u, v, 1)
				}
			}
		}
		g := b.Build(nil)
		incl := make([]map[int32]bool, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			incl[v] = map[int32]bool{int32(v): true}
			for _, h := range g.Neighbors(v) {
				incl[v][h.To] = true
			}
		}
		pl := Similarity(g)
		for i := range pl.Pairs {
			p := &pl.Pairs[i]
			inter := 0
			for k := range incl[p.U] {
				if incl[p.V][k] {
					inter++
				}
			}
			union := len(incl[p.U]) + len(incl[p.V]) - inter
			want := float64(inter) / float64(union)
			if math.Abs(p.Sim-want) > 1e-12 {
				t.Fatalf("seed %d pair (%d,%d): sim %v, Jaccard %v", seed, p.U, p.V, p.Sim, want)
			}
		}
	}
}
