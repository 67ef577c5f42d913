package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// closureUnion builds one graph out of components that each complete their
// part of the spanning forest at a different point of the sorted list: a
// random graph dense enough to cut several windows, a wheel (a dense hub
// over a sparse rim, so the closure pass uses both of its membership tests)
// with a pendant on its rim, a clique, a lone edge (a component with no op
// and no forest edge), and the given number of trailing isolated vertices.
// Enough isolated vertices make every vertex sparse (see buildRows).
func closureUnion(isolated int) *graph.Graph {
	dense := graph.ErdosRenyi(300, 0.06, rng.New(3))
	const rim = 40
	n := dense.NumVertices() + rim + 2 + 8 + 2 + isolated
	b := graph.NewBuilder(n)
	for _, e := range dense.Edges() {
		b.MustAddEdge(int(e.U), int(e.V), e.Weight)
	}
	off := dense.NumVertices()
	hub := off + rim
	for i := 0; i < rim; i++ {
		b.MustAddEdge(off+i, off+(i+1)%rim, 0.5+0.01*float64(i))
		b.MustAddEdge(off+i, hub, 1-0.01*float64(i))
	}
	b.MustAddEdge(off, hub+1, 0.7) // pendant on the rim
	off = hub + 2
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.MustAddEdge(off+i, off+j, 0.2+0.05*float64(i+j))
		}
	}
	off += 8
	b.MustAddEdge(off, off+1, 1) // lone edge
	return b.Build(nil)
}

// closedAt runs a checkpointing sweep and returns the final checkpoint's
// position: the end of the window whose merges closed the spanning forest.
func closedAt(t *testing.T, g *graph.Graph) int {
	t.Helper()
	var final SweepState
	if _, err := SweepResumeCtx(context.Background(), g, Similarity(g), nil, 2, 0,
		func(s SweepState, last bool) {
			if last {
				final = s
			}
		}, nil); err != nil {
		t.Fatal(err)
	}
	return final.Pos
}

// TestSweepForestClosure pins the engine's early close: once its merges
// span the op graph it retires the rest of the list with a check-only pass.
// Every engine path — T ∈ {1, 2, 4, 8}, spilled, frontier-fed one pair at a
// time, and resumed from every checkpoint — must still equal serial Sweep
// bitwise, with worker-invariant closure counters, on graphs whose forest
// closes early, closes on entry (no forest edge at all), or is empty.
func TestSweepForestClosure(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"union":        closureUnion(8),
		"union-sparse": closureUnion(3000),
		"empty":        graph.NewBuilder(0).Build(nil),
		"edgeless":     graph.NewBuilder(9).Build(nil),
		"lone-edges":   graph.DisjointEdges(4),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			if name == "union-sparse" {
				for v := 0; v < g.NumVertices(); v++ {
					if 64*g.Degree(v) >= g.NumVertices() {
						t.Fatalf("vertex %d is dense", v)
					}
				}
			}
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Levels != forestSize(g) {
				t.Fatalf("serial made %d merges, forest has %d edges", serial.Levels, forestSize(g))
			}
			var tail, windows int64 = -1, -1
			for _, workers := range []int{1, 2, 4, 8} {
				rec := obs.New()
				res, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, rec)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("T=%d vs serial", workers), res, serial)
				if tail < 0 {
					tail, windows = rec.Counter(CtrSweepTailOps), rec.Counter(CtrSweepWindows)
				}
				if rec.Counter(CtrSweepTailOps) != tail || rec.Counter(CtrSweepWindows) != windows {
					t.Fatalf("T=%d: %d tail ops over %d windows, T=1 had %d over %d", workers,
						rec.Counter(CtrSweepTailOps), rec.Counter(CtrSweepWindows), tail, windows)
				}
				if got := rec.Counter(CtrSweepMerges) + rec.Counter(CtrSweepNoopDrops); got != res.PairsProcessed {
					t.Fatalf("T=%d: merges + drops = %d, want %d", workers, got, res.PairsProcessed)
				}
			}
			if g.NumEdges() > 100 && tail < sweepWindowOps {
				t.Fatalf("%d of %d ops in the tail: expected an early close", tail, serial.PairsProcessed)
			}
			for _, workers := range []int{1, 4} {
				res, err := SweepSpilledOpts(context.Background(), g, Similarity(g), workers, SpillOptions{Dir: t.TempDir()}, nil)
				if err != nil {
					t.Fatalf("spilled T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("spilled T=%d vs serial", workers), res, serial)
			}
			pl := Similarity(g)
			pl.Sort()
			res, _, err := sweepFrontierFed(g, pl, 2)
			if err != nil {
				t.Fatalf("frontier-fed: %v", err)
			}
			requireIdenticalSweep(t, "frontier-fed vs serial", res, serial)
			var ckpts []SweepState
			if _, err := SweepResumeCtx(context.Background(), g, pl, nil, 2, 1024,
				func(s SweepState, _ bool) { ckpts = append(ckpts, s) }, nil); err != nil {
				t.Fatal(err)
			}
			for ci := range ckpts {
				workers := 1 + ci%8
				res, err := SweepResumeCtx(context.Background(), g, pl, &ckpts[ci], workers, 0, nil, nil)
				if err != nil {
					t.Fatalf("resume from pos %d: %v", ckpts[ci].Pos, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("resume from pos %d T=%d", ckpts[ci].Pos, workers), res, serial)
			}
		})
	}
}

// TestSweepSortsOnlyClosingPrefix pins the partial sort of an unsorted
// list: after an engine sweep, pl.Pairs must equal list L through the end
// of the closing window's similarity bucket — exactly what
// CtrSweepSortedPairs reports, the same at every worker count and in the
// spilled sweep — and hold the other pairs, unsorted, after it. A list that
// arrives sorted records no such counter.
func TestSweepSortsOnlyClosingPrefix(t *testing.T) {
	g := closureUnion(8)
	want := Similarity(g)
	want.Sort()
	_, offs, _ := bucketLayout(want.Pairs, 1)
	pos := closedAt(t, g)
	closing := offs[simBucket(want.Pairs[pos-1].Sim, 64-bucketBits)+1]
	if len(want.Pairs) < bucketSmallPairs || closing >= len(want.Pairs) {
		t.Fatalf("closing bucket ends at %d of %d pairs: want a list with 16-bit buckets and an unsorted tail", closing, len(want.Pairs))
	}
	master := Similarity(g)
	for _, workers := range []int{1, 2, 4, 8} {
		rec := obs.New()
		pl := &PairList{Pairs: slices.Clone(master.Pairs)}
		if _, err := SweepParallelCtx(context.Background(), g, pl, workers, rec); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(CtrSweepSortedPairs); got != int64(closing) {
			t.Fatalf("T=%d: %s = %d, want %d", workers, CtrSweepSortedPairs, got, closing)
		}
		if pl.Sorted() {
			t.Fatalf("T=%d: list flagged sorted after a partial sort", workers)
		}
		for i := range want.Pairs[:closing] {
			if cmpPairs(pl.Pairs[i], want.Pairs[i]) != 0 {
				t.Fatalf("T=%d: pair %d is (%d,%d), list L has (%d,%d)", workers, i,
					pl.Pairs[i].U, pl.Pairs[i].V, want.Pairs[i].U, want.Pairs[i].V)
			}
		}
		pl.Sort()
		if !slices.EqualFunc(pl.Pairs, want.Pairs, func(a, b Pair) bool { return cmpPairs(a, b) == 0 }) {
			t.Fatalf("T=%d: the swept list is not a permutation of list L", workers)
		}
		rec = obs.New()
		if _, err := SweepSpilledOpts(context.Background(), g, &PairList{Pairs: slices.Clone(master.Pairs)}, workers, SpillOptions{Dir: t.TempDir()}, rec); err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter(CtrSweepSortedPairs); got != int64(closing) {
			t.Fatalf("spilled T=%d: %s = %d, want %d", workers, CtrSweepSortedPairs, got, closing)
		}
	}
	rec := obs.New()
	if _, err := SweepParallelCtx(context.Background(), g, want, 2, rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Report().Counters[CtrSweepSortedPairs]; ok {
		t.Fatalf("a pre-sorted list recorded %s", CtrSweepSortedPairs)
	}
}

// plantOp inserts k into the Common list of pair i, keeping it sorted, in a
// fresh slice so the pair list's shared storage is untouched.
func plantOp(pl *PairList, i int, k int32) {
	c := pl.Pairs[i].Common
	j, _ := slices.BinarySearch(c, k)
	pl.Pairs[i].Common = slices.Insert(slices.Clone(c), j, k)
}

// TestSweepForestClosureKeepsCheck plants foreign ops after the closure
// point — ops whose edge (U, k) or (V, k) is not in the graph — and requires
// every engine path to report serial Sweep's exact error, which names the
// first failing op in sorted order. "two-ops" plants the first and the last
// tail pair, which land in different workers' ranges, so the later failure
// may be found first. The other variants each plant one op whose only
// missing edge is (U, k) or (V, k), with that endpoint dense (a bitset row,
// on the union) or sparse (a gallop over its adjacency, on the union with
// every vertex sparse); see buildRows. "two-ops-one-bucket" plants two
// adjacent pairs of one post-closure similarity bucket whose Phase I order
// is the reverse of their sorted order; "last-bucket" plants every pair of
// the last bucket, far past closure. Every variant also runs on the
// unsorted Similarity order, which the engines sort only up to closure:
// a tail failure must still report the first failing op in sorted order.
func TestSweepForestClosureKeepsCheck(t *testing.T) {
	type variant struct {
		g     *graph.Graph
		plant func(pl *PairList)
	}
	variants := map[string]variant{}
	for _, g := range []*graph.Graph{closureUnion(8), closureUnion(3000)} {
		pos := closedAt(t, g)
		base := Similarity(g)
		base.Sort()
		if pos >= len(base.Pairs)-1 {
			t.Fatal("the union closed without a tail")
		}
		// missing finds a tail pair one of whose endpoints x has density
		// class dense and a neighbor k of the other endpoint that is not a
		// neighbor of x, and plants (U, V, k): only the edge (x, k) is absent.
		missing := func(onV, dense bool) variant {
			for i := pos; i < len(base.Pairs); i++ {
				x, y := base.Pairs[i].U, base.Pairs[i].V
				if onV {
					x, y = y, x
				}
				if (64*g.Degree(int(x)) >= g.NumVertices()) != dense {
					continue
				}
				for _, h := range g.Neighbors(int(y)) {
					if _, ok := g.EdgeBetween(int(x), int(h.To)); !ok && h.To != x {
						return variant{g, func(pl *PairList) { plantOp(pl, i, h.To) }}
					}
				}
			}
			t.Fatalf("no tail pair to plant on (V side %v, dense %v)", onV, dense)
			return variant{}
		}
		if g.NumVertices() < 1000 {
			iso := int32(g.NumVertices() - 1)
			variants["two-ops"] = variant{g, func(pl *PairList) {
				plantOp(pl, pos, iso)
				plantOp(pl, len(pl.Pairs)-1, iso)
			}}
			a := reversedInBucket(t, g, base)
			variants["two-ops-one-bucket"] = variant{g, func(pl *PairList) {
				plantOp(pl, a, iso)
				plantOp(pl, a+1, iso)
			}}
			_, offs, ids := bucketLayout(base.Pairs, 1)
			last := ids[len(ids)-1]
			variants["last-bucket"] = variant{g, func(pl *PairList) {
				for i := offs[last]; i < offs[last+1]; i++ {
					plantOp(pl, i, iso)
				}
			}}
			variants["U-dense"] = missing(false, true)
			variants["V-dense"] = missing(true, true)
		} else {
			variants["U-sparse"] = missing(false, false)
			variants["V-sparse"] = missing(true, false)
		}
	}

	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			g := v.g
			// Each run gets its own copy of the pair headers; the planted
			// Common lists are shared, and no sweep writes them.
			sorted := Similarity(g)
			sorted.Sort()
			v.plant(sorted)
			planted := func() *PairList { return NewSortedPairList(slices.Clone(sorted.Pairs)) }
			// unsorted carries the same planted ops in Phase I's unsorted
			// order, which the engines sort only up to closure.
			master := Similarity(g)
			at := map[[2]int32]int{}
			for i, p := range master.Pairs {
				at[[2]int32{p.U, p.V}] = i
			}
			for _, p := range sorted.Pairs {
				master.Pairs[at[[2]int32{p.U, p.V}]].Common = p.Common
			}
			unsorted := func() *PairList { return &PairList{Pairs: slices.Clone(master.Pairs)} }
			_, want := Sweep(g, planted())
			if want == nil {
				t.Fatal("serial sweep accepted a planted op")
			}
			for _, workers := range []int{1, 2, 4, 8} {
				if _, err := SweepParallel(g, planted(), workers); err == nil || err.Error() != want.Error() {
					t.Fatalf("T=%d: error %v, want serial's %q", workers, err, want)
				}
			}
			if _, err := SweepSpilledOpts(context.Background(), g, planted(), 4, SpillOptions{Dir: t.TempDir()}, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("spilled: error %v, want serial's %q", err, want)
			}
			if _, _, err := sweepFrontierFed(g, planted(), 2); err == nil || err.Error() != want.Error() {
				t.Fatalf("frontier-fed: error %v, want serial's %q", err, want)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				if _, err := SweepParallel(g, unsorted(), workers); err == nil || err.Error() != want.Error() {
					t.Fatalf("unsorted T=%d: error %v, want serial's %q", workers, err, want)
				}
			}
			if _, err := SweepSpilledOpts(context.Background(), g, unsorted(), 4, SpillOptions{Dir: t.TempDir()}, nil); err == nil || err.Error() != want.Error() {
				t.Fatalf("unsorted spilled: error %v, want serial's %q", err, want)
			}
			if _, _, err := sweepFrontierFedLazy(g, unsorted(), 2); err == nil || err.Error() != want.Error() {
				t.Fatalf("unsorted frontier-fed: error %v, want serial's %q", err, want)
			}
		})
	}
}

// reversedInBucket returns a sorted index a such that pairs a and a+1 of the
// sorted list lie in one similarity bucket that starts past the closing
// window's bucket — a bucket no engine sorts — and appear in Phase I's
// unsorted order the other way round.
func reversedInBucket(t *testing.T, g *graph.Graph, sorted *PairList) int {
	t.Helper()
	rec := obs.New()
	if _, err := SweepParallelCtx(context.Background(), g, Similarity(g), 2, rec); err != nil {
		t.Fatal(err)
	}
	closing := int(rec.Counter(CtrSweepSortedPairs))
	at := map[[2]int32]int{}
	for i, p := range Similarity(g).Pairs {
		at[[2]int32{p.U, p.V}] = i
	}
	_, offs, ids := bucketLayout(sorted.Pairs, 1)
	for _, b := range ids {
		if offs[b] < closing {
			continue
		}
		for a := offs[b]; a+1 < offs[b+1]; a++ {
			p, q := sorted.Pairs[a], sorted.Pairs[a+1]
			if at[[2]int32{p.U, p.V}] > at[[2]int32{q.U, q.V}] {
				return a
			}
		}
	}
	t.Fatal("no post-closure bucket holds two pairs out of sorted order")
	return 0
}

// TestGallopHas checks the closure pass's sparse-side membership test
// against a linear scan, for ascending query sequences over random sorted
// rows.
func TestGallopHas(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		var row []uint64
		for v := 0; v < 300; v++ {
			if src.Float64() < 0.2 {
				row = append(row, uint64(v)<<32|uint64(len(row)))
			}
		}
		i := 0
		for k := int32(0); k < 300; k++ {
			if src.Float64() < 0.5 {
				continue
			}
			want := slices.ContainsFunc(row, func(h uint64) bool { return int32(h>>32) == k })
			if got := gallopHas(row, &i, k); got != want {
				t.Fatalf("trial %d: gallopHas(%d) = %v, want %v", trial, k, got, want)
			}
		}
	}
}
