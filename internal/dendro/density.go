package dendro

import (
	"cmp"
	"math"
	"slices"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/unionfind"
)

// PartitionDensity computes the partition density of an edge clustering
// (Ahn et al. 2010):
//
//	D = (2/M) Σ_c m_c · (m_c - n_c + 1) / ((n_c - 2)(n_c - 1)),
//
// where m_c is the number of links in community c and n_c the number of
// vertices those links touch. Communities with n_c = 2 (a single link, or
// parallel structure collapsing to two nodes) contribute 0 by convention.
// labels[e] is the cluster id of edge e.
//
// The sum runs over communities in the order the edge scan first meets
// their labels — ascending label for dendrogram cuts, whose labels are
// cluster minima — so a labeling always scores to the same float bits.
func PartitionDensity(g *graph.Graph, labels []int32) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	type comm struct {
		links int
		nodes map[int32]struct{}
	}
	index := make(map[int32]int)
	var comms []comm
	for e := 0; e < m; e++ {
		i, ok := index[labels[e]]
		if !ok {
			i = len(comms)
			index[labels[e]] = i
			comms = append(comms, comm{nodes: make(map[int32]struct{})})
		}
		c := &comms[i]
		edge := g.Edge(e)
		c.links++
		c.nodes[edge.U] = struct{}{}
		c.nodes[edge.V] = struct{}{}
	}
	var d float64
	for _, c := range comms {
		d += densityTerm(c.links, len(c.nodes))
	}
	return 2 * d / float64(m)
}

// densityTerm is one community's term of the partition-density sum: 0 when
// its links touch two vertices or fewer.
func densityTerm(links, nodes int) float64 {
	if nodes <= 2 {
		return 0
	}
	mc, nc := float64(links), float64(nodes)
	return mc * (mc - nc + 1) / ((nc - 2) * (nc - 1))
}

// singletonTheta is the threshold BestCut reports for the all-singletons
// cut: above every link similarity, so CutSim applies no merge.
const singletonTheta = 2

// BestCut returns the threshold whose flat clustering maximizes partition
// density, with that density and clustering. The candidates are every
// distinct merge similarity plus singletonTheta (2), which stands for the
// all-singletons cut; ties go to the higher threshold. So theta is 2
// whenever the all-singletons cut wins: on an empty dendrogram, on a graph
// with no merges, and whenever no cut scores above 0.
//
// One pass scores every candidate. It applies the merges in non-increasing
// similarity order to a union-find whose roots carry their cluster's link
// count and vertex set (merged small into large), and each union moves a
// running density sum by its new community term minus the two old ones.
// That is O(|E| log |E|) in all, against a full cut per threshold. The
// running sum can differ from PartitionDensity's in the last bits, so the
// candidates within a 1e-9 relative band of the best running score are
// rescored with CutSim and PartitionDensity, in descending threshold order.
// The result is bit for bit the cut a rescoring of every threshold picks.
// When every candidate ties, as on forests where D is 0 at every cut, every
// one is rescored.
func BestCut(g *graph.Graph, d *Dendrogram) (theta float64, density float64, labels []int32) {
	bySimDesc := func(a, b core.Merge) int { return cmp.Compare(b.Sim, a.Sim) }
	ms := d.merges
	if !slices.IsSortedFunc(ms, bySimDesc) {
		ms = slices.Clone(ms)
		slices.SortStableFunc(ms, bySimDesc)
	}

	type candidate struct{ theta, density float64 }
	var cands []candidate
	s := newCutScorer(g, d.n)
	next := 0
	score := func(th float64) {
		for ; next < len(ms) && ms[next].Sim >= th; next++ {
			s.union(ms[next].A, ms[next].B)
		}
		dens := 0.0
		if m := g.NumEdges(); m > 0 {
			dens = 2 * s.sum / float64(m)
		}
		cands = append(cands, candidate{th, dens})
	}
	// NaN similarities, which a merge file may carry, sort last and no cut
	// applies them; their candidates score as the singleton cut, which is
	// scored first, so they never win.
	for next < len(ms) && ms[next].Sim > singletonTheta {
		score(ms[next].Sim)
	}
	score(singletonTheta)
	for next < len(ms) && !math.IsNaN(ms[next].Sim) {
		score(ms[next].Sim)
	}

	top := math.Inf(-1)
	for _, c := range cands {
		top = max(top, c.density)
	}
	band := top - 1e-9*max(1, math.Abs(top))
	best := -1.0
	for _, c := range cands {
		if c.density < band {
			continue
		}
		l := d.CutSim(c.theta)
		if dens := PartitionDensity(g, l); dens > best {
			best, theta, labels = dens, c.theta, l
		}
	}
	return theta, best, labels
}

// cutScorer is a union-find over edges whose roots carry their cluster's
// link count and vertex set, with the running sum of every cluster's
// partition-density term.
type cutScorer struct {
	g     *graph.Graph
	uf    *unionfind.Ranked
	links []int
	nodes []map[int32]struct{} // nil while the root is a single edge
	sum   float64
}

func newCutScorer(g *graph.Graph, n int) *cutScorer {
	links := make([]int, n)
	for i := range links {
		links[i] = 1
	}
	return &cutScorer{g: g, uf: unionfind.NewRanked(n), links: links, nodes: make([]map[int32]struct{}, n)}
}

// vertexCount is the size of root r's vertex set; graphs have no
// self-loops, so a single edge touches two vertices.
func (s *cutScorer) vertexCount(r int32) int {
	if s.nodes[r] == nil {
		return 2
	}
	return len(s.nodes[r])
}

// addVertices adds root r's vertices to set.
func (s *cutScorer) addVertices(set map[int32]struct{}, r int32) {
	if s.nodes[r] == nil {
		e := s.g.Edge(int(r))
		set[e.U], set[e.V] = struct{}{}, struct{}{}
		return
	}
	for v := range s.nodes[r] {
		set[v] = struct{}{}
	}
}

func (s *cutScorer) union(a, b int32) {
	ra, rb := s.uf.Find(a), s.uf.Find(b)
	if ra == rb {
		return
	}
	na, nb := s.vertexCount(ra), s.vertexCount(rb)
	if na < nb {
		ra, rb, na, nb = rb, ra, nb, na
	}
	// Fold the smaller vertex set into the larger.
	set := s.nodes[ra]
	if set == nil {
		set = make(map[int32]struct{}, na+nb)
		s.addVertices(set, ra)
	}
	s.addVertices(set, rb)
	links := s.links[ra] + s.links[rb]
	s.sum += densityTerm(links, len(set)) - densityTerm(s.links[ra], na) - densityTerm(s.links[rb], nb)

	s.uf.Union(ra, rb)
	s.nodes[ra], s.nodes[rb] = nil, nil
	r := s.uf.Find(ra)
	s.links[r], s.nodes[r] = links, set
}
