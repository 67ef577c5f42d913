package dendro

import (
	"sort"

	"linkclust/internal/graph"
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
		nc := float64(len(c.nodes))
		mc := float64(c.links)
		if nc <= 2 {
			continue
		}
		d += mc * (mc - nc + 1) / ((nc - 2) * (nc - 1))
	}
	return 2 * d / float64(m)
}

// BestCut scans every distinct merge similarity of the dendrogram (plus the
// all-singletons cut) and returns the threshold whose flat clustering
// maximizes partition density, along with that density and clustering.
// On an empty dendrogram it returns theta = 1 with the singleton cut.
func BestCut(g *graph.Graph, d *Dendrogram) (theta float64, density float64, labels []int32) {
	best := -1.0
	candidates := append(d.Thresholds(), 2) // 2 = above everything: singletons
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, th := range candidates {
		l := d.CutSim(th)
		dens := PartitionDensity(g, l)
		if dens > best {
			best, theta, labels = dens, th, l
		}
	}
	return theta, best, labels
}
