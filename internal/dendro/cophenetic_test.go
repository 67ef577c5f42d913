package dendro

import (
	"math"
	"testing"

	"linkclust/internal/baseline"
	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// bruteCophenetic computes the cophenetic similarity of every queried pair
// by scanning merges per query — the O(Q·M) reference.
func bruteCophenetic(d *Dendrogram, a, b int32) float64 {
	uf := make([]int32, d.n)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(int32) int32
	find = func(i int32) int32 {
		for uf[i] != i {
			i = uf[i]
		}
		return i
	}
	for i := range d.merges {
		m := &d.merges[i]
		ra, rb := find(m.A), find(m.B)
		if ra != rb {
			if ra < rb {
				uf[rb] = ra
			} else {
				uf[ra] = rb
			}
		}
		if find(a) == find(b) {
			return m.Sim
		}
	}
	return 0
}

func TestCopheneticMatchesBruteForce(t *testing.T) {
	g := graph.ErdosRenyi(20, 0.3, rng.New(3))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	src := rng.New(7)
	type pr struct {
		a, b int32
		sim  float64
	}
	var queries []pr
	for i := 0; i < 60; i++ {
		a := int32(src.Intn(g.NumEdges()))
		b := int32(src.Intn(g.NumEdges()))
		if a != b {
			queries = append(queries, pr{a, b, src.Float64()})
		}
	}
	// The fast path and brute force must assign identical cophenetic
	// values; validate through two correlations on identical inputs.
	fast, err := d.CopheneticCorrelation(func(emit func(int32, int32, float64)) {
		for _, q := range queries {
			emit(q.a, q.b, q.sim)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force correlation.
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(queries))
	for _, q := range queries {
		y := bruteCophenetic(d, q.a, q.b)
		sx += q.sim
		sy += y
		sxx += q.sim * q.sim
		syy += y * y
		sxy += q.sim * y
	}
	want := (n*sxy - sx*sy) / (math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy))
	if math.Abs(fast-want) > 1e-9 {
		t.Fatalf("fast %v vs brute %v", fast, want)
	}
}

// TestCopheneticHighForSingleLinkage: feeding the dendrogram its own
// incident-pair similarities must give a strong positive correlation (1 for
// an ultrametric input; high for real data).
func TestCopheneticHighForSingleLinkage(t *testing.T) {
	g := graph.ErdosRenyi(25, 0.3, rng.New(5))
	pl := core.Similarity(g)
	es := baseline.NewEdgeSim(g, pl)
	res, err := core.Sweep(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	c, err := d.CopheneticCorrelation(func(emit func(int32, int32, float64)) {
		es.Pairs(func(e1, e2 int32, sim float64) { emit(e1, e2, sim) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.5 {
		t.Fatalf("cophenetic correlation %v unexpectedly low", c)
	}
	if c > 1+1e-9 {
		t.Fatalf("correlation %v above 1", c)
	}
}

func TestCopheneticUpperBoundsSimilarity(t *testing.T) {
	// Single-linkage cophenetic similarity is the max-min path, hence
	// >= the direct similarity for every incident pair.
	g := graph.ErdosRenyi(18, 0.35, rng.New(9))
	pl := core.Similarity(g)
	es := baseline.NewEdgeSim(g, pl)
	res, err := core.Sweep(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	es.Pairs(func(e1, e2 int32, sim float64) {
		if coph := bruteCophenetic(d, e1, e2); coph < sim-1e-9 {
			t.Fatalf("cophenetic %v < direct %v for (%d,%d)", coph, sim, e1, e2)
		}
	})
}

func TestCopheneticErrors(t *testing.T) {
	d := New(4, nil)
	if _, err := d.CopheneticCorrelation(func(emit func(int32, int32, float64)) {}); err == nil {
		t.Fatal("no pairs accepted")
	}
	// Constant cophenetic series (no merges => all zeros) is undefined
	// only when the observed side is constant too; zeros on one side with
	// varying sims still has zero variance on y — undefined.
	_, err := d.CopheneticCorrelation(func(emit func(int32, int32, float64)) {
		emit(0, 1, 0.3)
		emit(1, 2, 0.7)
	})
	if err == nil {
		t.Fatal("constant cophenetic series accepted")
	}
	// Out-of-range and self pairs are ignored.
	if _, err := d.CopheneticCorrelation(func(emit func(int32, int32, float64)) {
		emit(0, 0, 1)
		emit(-1, 2, 1)
		emit(9, 2, 1)
		emit(0, 1, 0.5)
	}); err == nil {
		t.Fatal("single usable pair accepted")
	}
}
