package core

import "slices"

// Chain is the paper's array C over edge indices (Algorithm 2, Lines 10-13):
// C[i] points from edge i toward the representative of its cluster, chains
// terminate at a self-loop, and a merge rewrites every visited entry to the
// minimum index of the union. Theorem 1: min F(i) — equivalently the chain's
// terminal self-loop, since every write points at a cluster minimum — is the
// cluster id of edge i.
//
// Chain is not safe for concurrent use; the parallel sweeping phase gives
// each worker its own replica and combines them with MergeChains.
type Chain struct {
	c       []int32
	changes int64
	scratch []int32
}

// NewChain returns a chain over n edges, each initially its own cluster.
func NewChain(n int) *Chain {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i)
	}
	return &Chain{c: c}
}

// Len returns the number of edges.
func (ch *Chain) Len() int { return len(ch.c) }

// Changes returns the cumulative number of entry rewrites that altered a
// value — the quantity plotted in Fig. 2(1).
func (ch *Chain) Changes() int64 { return ch.changes }

// ResetChanges zeroes the change counter (used for per-level accounting).
func (ch *Chain) ResetChanges() { ch.changes = 0 }

// AddChanges adds externally-performed rewrites to the change counter; the
// parallel sweeping phase accounts replica work through it.
func (ch *Chain) AddChanges(n int64) { ch.changes += n }

// Find returns the cluster id of edge i: the terminal element of its chain,
// which by Theorem 1 equals min F(i). Find does not modify the chain.
func (ch *Chain) Find(i int32) int32 {
	for ch.c[i] != i {
		i = ch.c[i]
	}
	return i
}

// Follow appends F(i) — every edge index on the chain from i to its
// self-loop, inclusive — to buf and returns the extended slice.
func (ch *Chain) Follow(i int32, buf []int32) []int32 {
	for {
		buf = append(buf, i)
		if ch.c[i] == i {
			return buf
		}
		i = ch.c[i]
	}
}

// Merge implements the MERGE procedure (Algorithm 2, Lines 23-33) on edge
// indices i1 and i2: every element of F(i1) ∪ F(i2) is rewritten to the
// minimum of the union. It returns the two prior cluster ids and whether
// they differed (in which case the caller advances the dendrogram level).
func (ch *Chain) Merge(i1, i2 int32) (c1, c2 int32, merged bool) {
	f := ch.Follow(i1, ch.scratch[:0])
	n1 := len(f)
	f = ch.Follow(i2, f)
	ch.scratch = f[:0]

	// Chains descend, so each terminal element is its chain's minimum.
	c1, c2 = f[n1-1], f[len(f)-1]
	cmin := c1
	if c2 < cmin {
		cmin = c2
	}
	for _, j := range f {
		if ch.c[j] != cmin {
			ch.c[j] = cmin
			ch.changes++
		}
	}
	return c1, c2, c1 != c2
}

// NumClusters returns the current number of clusters: the count of
// self-loops in C.
func (ch *Chain) NumClusters() int {
	n := 0
	for i, v := range ch.c {
		if int32(i) == v {
			n++
		}
	}
	return n
}

// Assignments returns the cluster id of every edge. The result is freshly
// allocated.
func (ch *Chain) Assignments() []int32 {
	out := make([]int32, len(ch.c))
	for i := range ch.c {
		out[i] = ch.Find(int32(i))
	}
	return out
}

// Roots writes the cluster id of every edge into dst, grown as needed, and
// returns it. Every entry of C points at an index no larger than its own
// (merges write cluster minima), so one ascending pass resolves each edge
// from its already resolved parent, without walking a chain.
func (ch *Chain) Roots(dst []int32) []int32 {
	dst = slices.Grow(dst[:0], len(ch.c))[:len(ch.c)]
	for i, p := range ch.c {
		if p == int32(i) {
			dst[i] = p
		} else {
			dst[i] = dst[p]
		}
	}
	return dst
}

// Snapshot returns a copy of the raw array C, usable with Restore. The
// coarse-grained algorithm snapshots epoch states for rollback.
func (ch *Chain) Snapshot() []int32 {
	return append([]int32(nil), ch.c...)
}

// Restore overwrites the chain with a snapshot taken from a chain of the
// same length. The change counter is not rewound: rollback work is real
// work.
func (ch *Chain) Restore(snap []int32) {
	if len(snap) != len(ch.c) {
		panic("core: Restore with snapshot of different length")
	}
	copy(ch.c, snap)
}

// Clone returns an independent copy of the chain with a zeroed change
// counter. The parallel sweeping phase clones one replica per worker.
func (ch *Chain) Clone() *Chain {
	return &Chain{c: append([]int32(nil), ch.c...)}
}

// MergeChains folds src into dst using the corrected combination scheme of
// Section VI-B: for every edge i, with f = min(F_dst(i), F_src(i)), every
// element of F_dst(i) ∪ F_src(i) ∪ F_dst(min F_src(i)) in dst is rewritten
// to f. The third term is the fix for the flaw the paper demonstrates (two
// clusters already joined in src must also join the dst cluster of src's
// minimum). src is left untouched.
func MergeChains(dst, src *Chain) {
	if dst.Len() != src.Len() {
		panic("core: MergeChains on chains of different lengths")
	}
	var buf []int32
	for i := 0; i < dst.Len(); i++ {
		buf = dst.Follow(int32(i), buf[:0])
		nd := len(buf)
		buf = src.Follow(int32(i), buf)
		fd, fs := buf[nd-1], buf[len(buf)-1]
		// F_dst(min F_src(i)): chains in dst from src's terminal.
		buf = dst.Follow(fs, buf)
		f := fd
		if fs < f {
			f = fs
		}
		if b := buf[len(buf)-1]; b < f {
			f = b
		}
		for _, j := range buf {
			if dst.c[j] != f {
				dst.c[j] = f
				dst.changes++
			}
		}
	}
}

// mergeChainsNaive is the flawed scheme the paper warns against (Section
// VI-B): it omits the F_dst(min F_src(i)) term. Kept for the regression test
// that reproduces the paper's counterexample.
func mergeChainsNaive(dst, src *Chain) {
	var buf []int32
	for i := 0; i < dst.Len(); i++ {
		buf = dst.Follow(int32(i), buf[:0])
		nd := len(buf)
		buf = src.Follow(int32(i), buf)
		fd, fs := buf[nd-1], buf[len(buf)-1]
		f := fd
		if fs < f {
			f = fs
		}
		for _, j := range buf {
			if dst.c[j] != f {
				dst.c[j] = f
				dst.changes++
			}
		}
	}
}
