package baseline

import (
	"sort"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

func buildSim(t *testing.T, g *graph.Graph) (*EdgeSim, *core.PairList) {
	t.Helper()
	pl := core.Similarity(g)
	return NewEdgeSim(g, pl), pl
}

// samePartition reports whether two label vectors induce the same partition.
// With min-labeled clusterings this is plain equality, but comparing as
// partitions keeps the check meaningful if labeling conventions drift.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32)
	rev := make(map[int32]int32)
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// thresholds returns the distinct merge similarities plus sentinels around
// them, giving one cut inside every dendrogram layer.
func thresholds(pl *core.PairList) []float64 {
	set := make(map[float64]struct{})
	for i := range pl.Pairs {
		set[pl.Pairs[i].Sim] = struct{}{}
	}
	out := make([]float64, 0, len(set)+2)
	for s := range set {
		out = append(out, s)
	}
	sort.Float64s(out)
	out = append(out, 2) // above every similarity: all singletons
	mids := make([]float64, 0, len(out)*2)
	for i, v := range out {
		mids = append(mids, v)
		if i+1 < len(out) {
			mids = append(mids, (v+out[i+1])/2)
		}
	}
	return mids
}

func TestEdgeSimPaperExample(t *testing.T) {
	g := graph.PaperExample()
	s, _ := buildSim(t, g)
	if s.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", s.NumEdges())
	}
	if s.NumIncidentPairs() != 16 {
		t.Fatalf("incident pairs = %d, want K2 = 16", s.NumIncidentPairs())
	}
	// Symmetry and zero diagonal.
	for i := int32(0); i < 8; i++ {
		if s.Sim(i, i) != 0 {
			t.Fatalf("self sim of %d non-zero", i)
		}
		for j := int32(0); j < 8; j++ {
			if s.Sim(i, j) != s.Sim(j, i) {
				t.Fatalf("asymmetric sim (%d,%d)", i, j)
			}
		}
	}
}

func TestNBMEqualsGroundTruth(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(18, 0.3, rng.New(seed))
		s, pl := buildSim(t, g)
		res, err := NBM(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range thresholds(pl) {
			want := ThresholdComponents(s, theta)
			got := CutMerges(s.NumEdges(), res.Merges, theta)
			if !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: NBM cut disagrees with ground truth", seed, theta)
			}
		}
	}
}

func TestSLINKEqualsGroundTruth(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(18, 0.3, rng.New(seed))
		s, pl := buildSim(t, g)
		res := SLINK(s)
		for _, theta := range thresholds(pl) {
			want := ThresholdComponents(s, theta)
			got := res.CutSim(theta)
			if !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: SLINK cut disagrees with ground truth", seed, theta)
			}
		}
	}
}

// TestSweepEqualsBaselines is the central cross-validation of the paper's
// Theorem 1/correctness claim: the sweeping algorithm, the standard NBM
// algorithm and SLINK produce the same single-linkage dendrogram, compared
// as flat clusterings at every threshold.
func TestSweepEqualsBaselines(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := graph.ErdosRenyi(16, 0.35, rng.New(seed))
		pl := core.Similarity(g)
		s := NewEdgeSim(g, pl)
		sweep, err := core.Sweep(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		nbm, err := NBM(s)
		if err != nil {
			t.Fatal(err)
		}
		slink := SLINK(s)
		for _, theta := range thresholds(pl) {
			want := ThresholdComponents(s, theta)
			if got := CutMerges(s.NumEdges(), sweep.Merges, theta); !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: sweep disagrees with ground truth", seed, theta)
			}
			if got := CutMerges(s.NumEdges(), nbm.Merges, theta); !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: NBM disagrees with ground truth", seed, theta)
			}
			if got := slink.CutSim(theta); !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: SLINK disagrees with ground truth", seed, theta)
			}
		}
		// The two merge-stream algorithms must also agree on the number
		// of positive-similarity merges.
		if len(sweep.Merges) != len(nbm.Merges) {
			t.Fatalf("seed %d: sweep %d merges, NBM %d", seed, len(sweep.Merges), len(nbm.Merges))
		}
	}
}

func TestNBMStructured(t *testing.T) {
	// K_{2,4}: all 8 edges converge to one cluster in 7 merges.
	g := graph.PaperExample()
	s, _ := buildSim(t, g)
	res, err := NBM(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 7 {
		t.Fatalf("merges = %d, want 7", len(res.Merges))
	}
	// Merge similarities are non-increasing.
	for i := 1; i < len(res.Merges); i++ {
		if res.Merges[i].Sim > res.Merges[i-1].Sim+1e-12 {
			t.Fatalf("merge %d sim %v increased", i, res.Merges[i].Sim)
		}
	}
	if res.MatrixBytes != 8*8*8 {
		t.Fatalf("MatrixBytes = %d", res.MatrixBytes)
	}
}

func TestNBMDisjointEdgesNoMerges(t *testing.T) {
	g := graph.DisjointEdges(4)
	s, _ := buildSim(t, g)
	res, err := NBM(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 0 {
		t.Fatalf("matching produced %d merges", len(res.Merges))
	}
}

func TestNBMEmpty(t *testing.T) {
	g := graph.NewBuilder(3).Build(nil)
	s, _ := buildSim(t, g)
	res, err := NBM(s)
	if err != nil || len(res.Merges) != 0 {
		t.Fatalf("empty graph: %v, %d merges", err, len(res.Merges))
	}
	slink := SLINK(s)
	if len(slink.Pi) != 0 {
		t.Fatalf("SLINK on empty: %d points", len(slink.Pi))
	}
}

func TestNBMSizeGuard(t *testing.T) {
	s := &EdgeSim{n: MaxNBMEdges + 1, sim: map[uint64]float64{}}
	if _, err := NBM(s); err == nil {
		t.Fatal("oversized input accepted")
	}
}

func TestSLINKPointerRepresentationInvariants(t *testing.T) {
	g := graph.ErdosRenyi(20, 0.3, rng.New(3))
	s, _ := buildSim(t, g)
	res := SLINK(s)
	n := len(res.Pi)
	for i := 0; i < n; i++ {
		// Pi points to a strictly later point, except the last.
		if i < n-1 && int(res.Pi[i]) <= i {
			t.Fatalf("Pi[%d] = %d not later", i, res.Pi[i])
		}
	}
}

func BenchmarkNBM(b *testing.B) {
	g := graph.ErdosRenyi(60, 0.2, rng.New(1))
	pl := core.Similarity(g)
	s := NewEdgeSim(g, pl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NBM(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLINK(b *testing.B) {
	g := graph.ErdosRenyi(60, 0.2, rng.New(1))
	pl := core.Similarity(g)
	s := NewEdgeSim(g, pl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SLINK(s)
	}
}

// TestMSTEqualsGroundTruth: the Gower-Ross maximum-spanning-tree
// construction yields the same single-linkage dendrogram.
func TestMSTEqualsGroundTruth(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(18, 0.3, rng.New(seed))
		s, pl := buildSim(t, g)
		merges := MST(s)
		for _, theta := range thresholds(pl) {
			want := ThresholdComponents(s, theta)
			got := CutMerges(s.NumEdges(), merges, theta)
			if !samePartition(want, got) {
				t.Fatalf("seed %d theta %v: MST cut disagrees with ground truth", seed, theta)
			}
		}
	}
}

func TestMSTMergeStreamProperties(t *testing.T) {
	g := graph.PaperExample()
	s, _ := buildSim(t, g)
	merges := MST(s)
	if len(merges) != 7 {
		t.Fatalf("K_{2,4}: %d merges, want 7", len(merges))
	}
	for i := 1; i < len(merges); i++ {
		if merges[i].Sim > merges[i-1].Sim+1e-12 {
			t.Fatalf("merge %d similarity increased", i)
		}
		if merges[i].Level != int32(i+1) {
			t.Fatalf("merge %d has level %d", i, merges[i].Level)
		}
	}
	// Agreement with the sweeping algorithm's merge count.
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != len(merges) {
		t.Fatalf("sweep %d merges, MST %d", len(res.Merges), len(merges))
	}
}

func TestMSTEmptyAndMatching(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(4).Build(nil),
		graph.DisjointEdges(4),
	} {
		s, _ := buildSim(t, g)
		if m := MST(s); len(m) != 0 {
			t.Fatalf("graph without incident pairs produced %d merges", len(m))
		}
	}
}

func BenchmarkMST(b *testing.B) {
	g := graph.ErdosRenyi(60, 0.2, rng.New(1))
	pl := core.Similarity(g)
	s := NewEdgeSim(g, pl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MST(s)
	}
}
