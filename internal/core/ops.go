package core

import (
	"fmt"
	"math"
	"slices"

	"linkclust/internal/graph"
)

// Op is one merge operation of Algorithm 2: vertex pair (U, V) and one of
// its common neighbors K drive the incident edge pair E1 = (U, K),
// E2 = (V, K).
type Op struct {
	K, E1, E2 int32
}

// AppendOps regenerates the ops of vertex pair (u, v) of g and appends them
// to dst, one per common neighbor k in ascending order — the order the
// wedge kernel counts them in, and the order every sweep replays them in.
// It walks the shorter adjacency row and gallops the longer one, so a pair
// costs O(min(deg u, deg v)) steps. The number appended is |N(u) ∩ N(v)|,
// which for a pair of map M built from g is its N. A vertex outside g has
// no neighbors.
func AppendOps(dst []Op, g *graph.Graph, u, v int32) []Op {
	n := int32(g.NumVertices())
	if u < 0 || v < 0 || u >= n || v >= n {
		return dst
	}
	rs, rl := g.Neighbors(int(u)), g.Neighbors(int(v))
	swap := len(rs) > len(rl)
	if swap {
		rs, rl = rl, rs
	}
	j := 0
	for _, hs := range rs {
		k := hs.To
		if j < len(rl) && rl[j].To < k {
			step := 1
			for j+step < len(rl) && rl[j+step].To < k {
				j += step
				step <<= 1
			}
			lo, hi := j+1, min(j+step, len(rl))
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if rl[mid].To < k {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			j = lo
		}
		if j == len(rl) {
			break
		}
		if rl[j].To != k {
			continue
		}
		op := Op{K: k, E1: hs.Edge, E2: rl[j].Edge}
		if swap {
			op.E1, op.E2 = op.E2, op.E1
		}
		dst = append(dst, op)
		j++
	}
	return dst
}

// CheckPairs checks a pair list that did not come from this process's Phase
// I — one read from a file — against the graph it is to be swept on. Every
// pair must satisfy 0 <= U < V < |V|, carry a similarity that is not NaN
// (NaN has no place in list L's order), and have N = |N(U) ∩ N(V)| >= 1; a
// list flagged sorted must be in list-L order. The sweeps trust the counts
// N past the point where their merges span the op graph, and for pairs
// whose endpoints are sealed into one cluster, so a list that fails here
// could otherwise be clustered without an error. The error names
// the first failing pair in list order.
//
// The counts are checked row by row, as the wedge kernel's count pass makes
// them: the pairs are bucketed by U, and each row with a pair counts every
// wedge (U, k, v > U) once, so the check costs about one count pass plus
// O(K1), not an intersection per pair.
func CheckPairs(g *graph.Graph, pl *PairList) error {
	n := g.NumVertices()
	pairs := pl.Pairs
	// bad is the first pair, in list order, that fails a check of its own
	// fields; only the pairs before it need their counts checked.
	bad, badErr := len(pairs), error(nil)
	start := make([]int32, n+1)
	for i := range pairs {
		p := &pairs[i]
		switch {
		case p.U < 0 || p.U >= p.V || int(p.V) >= n:
			badErr = fmt.Errorf("core: pair %d (%d,%d) is not a vertex pair U < V of a graph with %d vertices", i, p.U, p.V, n)
		case math.IsNaN(p.Sim):
			badErr = fmt.Errorf("core: pair %d (%d,%d) has similarity NaN", i, p.U, p.V)
		case pl.sorted && i > 0 && cmpPairs(pairs[i-1], *p) > 0:
			badErr = fmt.Errorf("core: pair %d (%d,%d) is out of order in a list flagged sorted", i, p.U, p.V)
		default:
			start[p.U+1]++
			continue
		}
		bad = i
		break
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	byU := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for i := range pairs[:bad] {
		u := pairs[i].U
		byU[next[u]] = int32(i)
		next[u]++
	}
	ra := newRowAccum(n)
	fail, failN := bad, int32(0)
	for u := 0; u < n; u++ {
		row := byU[start[u]:start[u+1]]
		if len(row) == 0 {
			continue
		}
		ra.countCommon(g, u)
		for _, i := range row {
			p := &pairs[i]
			if c := ra.cnt[p.V]; (c != p.N || c == 0) && int(i) < fail {
				fail, failN = int(i), c
			}
		}
		for _, v := range ra.touched {
			ra.cnt[v] = 0
		}
	}
	if fail < bad {
		p := &pairs[fail]
		return fmt.Errorf("core: pair %d (%d,%d) lists %d common neighbors, the graph has %d", fail, p.U, p.V, p.N, failN)
	}
	return badErr
}
