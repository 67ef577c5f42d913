// Package graph provides the weighted undirected graph substrate used by the
// link-clustering algorithms: a compact adjacency representation with stable
// edge identifiers, deterministic generators for the graph families analyzed
// in the paper, structural statistics (density and the K1/K2/K3 quantities of
// Theorem 2), and a simple text serialization.
//
// Vertices are dense integers 0..NumVertices()-1, optionally labeled. Edges
// are undirected, carry a positive float64 weight, and are identified by a
// dense index 0..NumEdges()-1; the endpoint pair of an edge is canonicalized
// as U < V. Self-loops and parallel edges are rejected at construction time.
//
// Internally vertex and edge ids are stored as int32: every workload in this
// repository (and the paper's largest graph) fits comfortably below 2^31,
// and the halved footprint matters for the memory experiments of Fig. 4(3).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Half is one directed half of an undirected edge as seen from a vertex's
// adjacency list: the opposite endpoint, the weight, and the edge id.
type Half struct {
	To     int32
	Weight float64
	Edge   int32
}

// Edge is an undirected weighted edge with canonical endpoint order U < V.
type Edge struct {
	U, V   int32
	Weight float64
}

// Graph is an immutable weighted undirected graph. Construct one with a
// Builder or a generator.
type Graph struct {
	adj    [][]Half // adj[v] sorted by To
	edges  []Edge
	labels []string // nil when vertices are unlabeled
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v, sorted by neighbor id. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// Edge returns the e-th edge.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Edges returns the full edge list in id order. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeBetween returns the id of the edge joining u and v, if any.
func (g *Graph) EdgeBetween(u, v int) (int32, bool) {
	au := g.adj[u]
	if len(g.adj[v]) < len(au) {
		u, v = v, u
		au = g.adj[u]
	}
	t := int32(v)
	i := sort.Search(len(au), func(i int) bool { return au[i].To >= t })
	if i < len(au) && au[i].To == t {
		return au[i].Edge, true
	}
	return 0, false
}

// Weight returns the weight of the edge joining u and v, or 0 when the
// vertices are not adjacent.
func (g *Graph) Weight(u, v int) float64 {
	if e, ok := g.EdgeBetween(u, v); ok {
		return g.edges[e].Weight
	}
	return 0
}

// Label returns the label of vertex v, or its decimal id when the graph is
// unlabeled.
func (g *Graph) Label(v int) string {
	if g.labels == nil {
		return fmt.Sprintf("%d", v)
	}
	return g.labels[v]
}

// Labeled reports whether the graph carries vertex labels.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Density returns 2|E| / (|V|(|V|-1)), the paper's density definition, or 0
// for graphs with fewer than two vertices.
func (g *Graph) Density() float64 {
	n := len(g.adj)
	if n < 2 {
		return 0
	}
	return 2 * float64(len(g.edges)) / (float64(n) * float64(n-1))
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	n      int
	labels []string
	seen   map[[2]int32]int // canonical pair -> index into us/vs/ws
	us, vs []int32
	ws     []float64
}

// NewBuilder returns a Builder for a graph with n vertices and no labels.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, seen: make(map[[2]int32]int)}
}

// NewLabeledBuilder returns a Builder whose vertices carry the given labels.
func NewLabeledBuilder(labels []string) *Builder {
	b := NewBuilder(len(labels))
	b.labels = append([]string(nil), labels...)
	return b
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.us) }

// AddEdge inserts the undirected edge {u, v} with the given weight. Adding
// the same pair again overwrites the weight (last write wins). It returns an
// error wrapping ErrVertexRange, ErrSelfLoop, or ErrBadWeight for
// out-of-range endpoints, self-loops, or weights that are not positive
// finite numbers (zero, negative, NaN, ±Inf).
func (b *Builder) AddEdge(u, v int, w float64) error {
	if err := checkEdge(b.n, u, v, w); err != nil {
		return err
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int32{int32(u), int32(v)}
	if i, ok := b.seen[key]; ok {
		b.ws[i] = w
		return nil
	}
	b.seen[key] = len(b.us)
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
	return nil
}

// checkEdge is AddEdge's validation of the edge {u, v} of weight w in a
// graph of n vertices, in its order: endpoints in range, then no self-loop,
// then the weight.
func checkEdge(n, u, v int, w float64) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) outside [0,%d): %w", u, v, n, ErrVertexRange)
	}
	if u == v {
		return fmt.Errorf("graph: edge (%d,%d): %w", u, v, ErrSelfLoop)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("graph: edge (%d,%d) weight %v (must be positive and finite): %w", u, v, w, ErrBadWeight)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators with statically valid inputs.
func (b *Builder) MustAddEdge(u, v int, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Build finalizes the graph. Edge ids are assigned in insertion order; pass
// a non-nil perm (a permutation of 0..NumEdges()-1) to assign edge ids in a
// custom order instead, as the sweeping algorithm's random edge enumeration
// requires. Build panics if perm has the wrong length or is not a
// permutation.
func (b *Builder) Build(perm []int) *Graph {
	m := len(b.us)
	if perm != nil {
		if len(perm) != m {
			panic(fmt.Sprintf("graph: perm length %d != edge count %d", len(perm), m))
		}
		seen := make([]bool, m)
		for _, p := range perm {
			if p < 0 || p >= m || seen[p] {
				panic("graph: perm is not a permutation of edge indices")
			}
			seen[p] = true
		}
	}

	g := &Graph{
		adj:    make([][]Half, b.n),
		edges:  make([]Edge, m),
		labels: b.labels,
	}
	// perm[e] is the insertion index of the edge that receives id e.
	for e := range g.edges {
		src := e
		if perm != nil {
			src = perm[e]
		}
		g.edges[e] = Edge{U: b.us[src], V: b.vs[src], Weight: b.ws[src]}
	}
	// Every row is a window of one half-edge array, placed in neighbor
	// order by two counting passes: bucket the edge ids by endpoint, then
	// walk the vertices x in ascending order and append each edge at x, as
	// the half-edge to x, to its other endpoint's row.
	off := make([]int32, b.n+1)
	for _, e := range g.edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := range b.n {
		off[v+1] += off[v]
	}
	next := slices.Clone(off[:b.n])
	incident := make([]int32, 2*m)
	for e, ed := range g.edges {
		incident[next[ed.U]] = int32(e)
		next[ed.U]++
		incident[next[ed.V]] = int32(e)
		next[ed.V]++
	}
	copy(next, off)
	halves := make([]Half, 2*m)
	for x := range int32(b.n) {
		for _, e := range incident[off[x]:off[x+1]] {
			ed := g.edges[e]
			y := ed.U ^ ed.V ^ x // the other endpoint
			halves[next[y]] = Half{To: x, Weight: ed.Weight, Edge: e}
			next[y]++
		}
	}
	for v := range g.adj {
		g.adj[v] = halves[off[v]:off[v+1]:off[v+1]]
	}
	return g
}
