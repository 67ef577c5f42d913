package dendro

import (
	"math"
	"slices"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

func clusterCount(labels []int32) int {
	set := make(map[int32]struct{})
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}

func paperDendrogram(t *testing.T) (*graph.Graph, *Dendrogram) {
	t.Helper()
	g := graph.PaperExample()
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	return g, New(g.NumEdges(), res.Merges)
}

func TestCutSimExtremes(t *testing.T) {
	g, d := paperDendrogram(t)
	// Above every similarity: all singletons.
	if n := clusterCount(d.CutSim(1.1)); n != g.NumEdges() {
		t.Fatalf("top cut has %d clusters, want %d", n, g.NumEdges())
	}
	// At/below the minimum similarity: one cluster (K_{2,4} is link-connected).
	if n := clusterCount(d.CutSim(0)); n != 1 {
		t.Fatalf("bottom cut has %d clusters, want 1", n)
	}
}

func TestCutSimMiddleLayer(t *testing.T) {
	_, d := paperDendrogram(t)
	// Between leaf-pair sim (1/2) and hub-pair sim (2/3): only the four
	// hub-pair merges apply, leaving 4 clusters of 2 edges each.
	labels := d.CutSim(0.6)
	if n := clusterCount(labels); n != 4 {
		t.Fatalf("middle cut has %d clusters, want 4", n)
	}
}

func TestCutMonotone(t *testing.T) {
	// Lowering the threshold can only merge clusters, never split.
	g := graph.ErdosRenyi(30, 0.2, rng.New(1))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	ths := d.Thresholds()
	prev := g.NumEdges() + 1
	for _, th := range ths {
		n := clusterCount(d.CutSim(th))
		if n > prev {
			t.Fatalf("threshold %v: clusters rose from %d to %d", th, prev, n)
		}
		prev = n
	}
}

func TestCutLevel(t *testing.T) {
	g, d := paperDendrogram(t)
	if n := clusterCount(d.CutLevel(0)); n != g.NumEdges() {
		t.Fatalf("level 0 has %d clusters", n)
	}
	// Strict sweep: level r applies exactly r merges.
	for r := int32(1); r <= d.NumLevels(); r++ {
		want := g.NumEdges() - int(r)
		if n := clusterCount(d.CutLevel(r)); n != want {
			t.Fatalf("level %d has %d clusters, want %d", r, n, want)
		}
	}
}

func TestClustersPerLevel(t *testing.T) {
	g, d := paperDendrogram(t)
	counts := d.ClustersPerLevel()
	if len(counts) != int(d.NumLevels())+1 {
		t.Fatalf("counts length %d", len(counts))
	}
	if counts[0] != g.NumEdges() {
		t.Fatalf("level 0 count %d", counts[0])
	}
	for l := 1; l < len(counts); l++ {
		if counts[l] != counts[l-1]-1 {
			t.Fatalf("level %d: %d clusters after %d", l, counts[l], counts[l-1])
		}
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("final count %d, want 1", counts[len(counts)-1])
	}
}

func TestThresholdsSortedDistinct(t *testing.T) {
	_, d := paperDendrogram(t)
	ths := d.Thresholds()
	if len(ths) != 2 {
		t.Fatalf("thresholds = %v, want the two distinct sims", ths)
	}
	if !(ths[0] > ths[1]) {
		t.Fatalf("thresholds not descending: %v", ths)
	}
}

func TestPartitionDensityKnownValues(t *testing.T) {
	// One community spanning all of K4: m=6, n=4 -> D = 2/6 * 6*(6-3)/((2)(3)) = 1.
	k4 := graph.Complete(4)
	labels := make([]int32, k4.NumEdges())
	if d := PartitionDensity(k4, labels); math.Abs(d-1) > 1e-12 {
		t.Fatalf("K4 single community density = %v, want 1", d)
	}
	// A path of 3 edges in one community: m=3, n=4 -> contribution
	// 3*(3-3)/... = 0 -> D = 0 (tree-like communities score zero).
	p := graph.Path(4)
	labels = make([]int32, p.NumEdges())
	if d := PartitionDensity(p, labels); d != 0 {
		t.Fatalf("path community density = %v, want 0", d)
	}
	// All singletons: every community has n_c = 2 -> D = 0.
	g := graph.Complete(5)
	labels = make([]int32, g.NumEdges())
	for i := range labels {
		labels[i] = int32(i)
	}
	if d := PartitionDensity(g, labels); d != 0 {
		t.Fatalf("singleton density = %v, want 0", d)
	}
	// Empty graph.
	if d := PartitionDensity(graph.NewBuilder(2).Build(nil), nil); d != 0 {
		t.Fatalf("empty graph density = %v", d)
	}
}

func TestPartitionDensityRange(t *testing.T) {
	// D is bounded above by 1 and below by -2/3 (Ahn et al.); check on
	// random cuts.
	g := graph.ErdosRenyi(25, 0.3, rng.New(2))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	for _, th := range d.Thresholds() {
		dens := PartitionDensity(g, d.CutSim(th))
		if dens > 1+1e-9 || dens < -2.0/3-1e-9 {
			t.Fatalf("density %v out of [-2/3, 1]", dens)
		}
	}
}

// TestPartitionDensityDeterministic pins the summation order of
// PartitionDensity: on a cut with many multi-node communities, repeated
// calls must agree bitwise with each other and with a reference sum taken
// in ascending label order, and repeated BestCut calls must pick the same
// threshold and labels. A float sum in map iteration order fails this.
func TestPartitionDensityDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(300, 0.03, rng.New(9))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)

	// The cut with the most communities of three or more nodes.
	var labels []int32
	most := 0
	for _, th := range d.Thresholds() {
		l := d.CutSim(th)
		if n := len(multiNodeTerms(g, l)); n > most {
			most, labels = n, l
		}
	}
	if most < 50 {
		t.Fatalf("densest cut has only %d multi-node communities; need many to expose order", most)
	}
	var ref float64
	for _, term := range multiNodeTerms(g, labels) {
		ref += term
	}
	ref = 2 * ref / float64(g.NumEdges())
	for i := 0; i < 20; i++ {
		if got := PartitionDensity(g, labels); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("call %d: density %x, want label-order sum %x", i, math.Float64bits(got), math.Float64bits(ref))
		}
	}

	theta, dens, best := BestCut(g, d)
	for i := 0; i < 2; i++ {
		th, de, l := BestCut(g, d)
		if th != theta || math.Float64bits(de) != math.Float64bits(dens) || !slices.Equal(l, best) {
			t.Fatalf("BestCut call %d: theta %v density %v, first call theta %v density %v", i, th, de, theta, dens)
		}
	}
}

// multiNodeTerms returns the partition-density terms of labels' communities
// with three or more nodes, in ascending label order.
func multiNodeTerms(g *graph.Graph, labels []int32) []float64 {
	links := map[int32]int{}
	nodes := map[int32]map[int32]bool{}
	for e, l := range labels {
		if nodes[l] == nil {
			nodes[l] = map[int32]bool{}
		}
		edge := g.Edge(e)
		links[l]++
		nodes[l][edge.U], nodes[l][edge.V] = true, true
	}
	ids := make([]int32, 0, len(links))
	for l := range links {
		ids = append(ids, l)
	}
	slices.Sort(ids)
	var terms []float64
	for _, l := range ids {
		mc, nc := float64(links[l]), float64(len(nodes[l]))
		if nc > 2 {
			terms = append(terms, mc*(mc-nc+1)/((nc-2)*(nc-1)))
		}
	}
	return terms
}

func TestBestCutTwoCliques(t *testing.T) {
	// Two K4s sharing one vertex: the best cut separates the cliques into
	// two dense link communities with density 1 and the shared vertex in
	// both communities.
	g := twoCliques()
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	_, density, labels := BestCut(g, d)
	if math.Abs(density-1) > 1e-9 {
		t.Fatalf("best density = %v, want 1", density)
	}
	comms := Communities(g, labels)
	if len(comms) != 2 {
		t.Fatalf("%d communities, want 2", len(comms))
	}
	// Vertex 3 (the bridge) belongs to both.
	memb := NodeMemberships(g, comms)
	if len(memb[3]) != 2 {
		t.Fatalf("bridge vertex in %d communities, want 2", len(memb[3]))
	}
	for _, v := range []int{0, 1, 2, 4, 5, 6} {
		if len(memb[v]) != 1 {
			t.Fatalf("vertex %d in %d communities, want 1", v, len(memb[v]))
		}
	}
}

func TestCommunitiesPartitionEdges(t *testing.T) {
	g := graph.ErdosRenyi(20, 0.3, rng.New(5))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	labels := d.CutSim(0.3)
	comms := Communities(g, labels)
	seen := make(map[int32]bool)
	total := 0
	for _, c := range comms {
		total += len(c.Edges)
		for _, e := range c.Edges {
			if seen[e] {
				t.Fatalf("edge %d in two communities", e)
			}
			seen[e] = true
		}
		// Nodes ascending and consistent with edges.
		for i := 1; i < len(c.Nodes); i++ {
			if c.Nodes[i-1] >= c.Nodes[i] {
				t.Fatalf("community nodes not sorted: %v", c.Nodes)
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("communities cover %d edges, want %d", total, g.NumEdges())
	}
	// Sorted by size descending.
	for i := 1; i < len(comms); i++ {
		if len(comms[i].Edges) > len(comms[i-1].Edges) {
			t.Fatalf("communities not sorted by size")
		}
	}
}

func TestDendrogramEmpty(t *testing.T) {
	d := New(0, nil)
	if d.NumLevels() != 0 || d.NumMerges() != 0 {
		t.Fatal("empty dendrogram not empty")
	}
	if labels := d.CutSim(0.5); len(labels) != 0 {
		t.Fatal("cut of empty dendrogram not empty")
	}
	counts := d.ClustersPerLevel()
	if len(counts) != 1 || counts[0] != 0 {
		t.Fatalf("ClustersPerLevel = %v", counts)
	}
}

func TestCutK(t *testing.T) {
	g, d := paperDendrogram(t)
	for _, k := range []int{1, 2, 4, 8} {
		labels := d.CutK(k)
		n := clusterCount(labels)
		if n > k && n != g.NumEdges() {
			t.Fatalf("CutK(%d) gave %d clusters", k, n)
		}
		if n > k {
			t.Fatalf("CutK(%d) did not reach k: %d clusters", k, n)
		}
	}
	// k larger than the edge count: nothing merges.
	if n := clusterCount(d.CutK(100)); n != g.NumEdges() {
		t.Fatalf("CutK(100) = %d clusters, want %d", n, g.NumEdges())
	}
	// k <= 0 behaves like k = reachable minimum.
	if n := clusterCount(d.CutK(0)); n != 1 {
		t.Fatalf("CutK(0) = %d clusters, want 1 (stream ends)", n)
	}
}

func TestCutKMatchesCutLevelOnStrictStream(t *testing.T) {
	// On a strict (one merge per level) stream, CutK(n-r) == CutLevel(r).
	g := graph.ErdosRenyi(20, 0.3, rng.New(6))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	for r := int32(0); r <= d.NumLevels(); r += 3 {
		a := d.CutLevel(r)
		b := d.CutK(g.NumEdges() - int(r))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("r=%d: CutLevel and CutK disagree at edge %d", r, i)
			}
		}
	}
}
