package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// closureUnion builds one graph out of components that each complete their
// part of the spanning forest at a different point of the sorted list: a
// random graph dense enough to cut several windows, a wheel (a dense hub
// over a sparse rim) with a pendant on its rim, a clique, a lone edge (a
// component with no op and no forest edge), and the given number of
// trailing isolated vertices. Enough isolated vertices make every vertex
// sparse: its degree falls below |V|/64.
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

// closedAt returns the end of the window whose merges closed the spanning
// forest, as an index into the sorted list: the p at which the counts N of
// pairs[:p] sum to K2 minus the ops the engine retired after closing.
func closedAt(t *testing.T, g *graph.Graph) int {
	t.Helper()
	rec := obs.New()
	res, err := SweepParallelCtx(context.Background(), g, Similarity(g), 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	pl := Similarity(g)
	pl.Sort()
	want := res.PairsProcessed - rec.Counter(CtrSweepTailOps)
	var ops int64
	for p, pair := range pl.Pairs {
		if ops == want {
			return p
		}
		ops += int64(pair.N)
	}
	if ops != want {
		t.Fatalf("no pair boundary carries %d of %d ops", want, ops)
	}
	return len(pl.Pairs)
}

// TestSweepForestClosure pins the engine's early close: once its merges
// span the op graph it retires the rest of the list by counting its ops.
// Every engine path — T ∈ {1, 2, 4, 8}, spilled, and frontier-fed one pair
// at a time — must still equal serial Sweep bitwise, with worker-invariant
// closure counters (the oracle's cell check, oracle_test.go), on graphs
// whose forest closes early, closes on entry (no forest edge at all), or is
// empty.
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
			f := oracleFamily{name: name, g: g}
			ref := oracleReference(t, f)
			if ref.serial.Levels != forestSize(g) {
				t.Fatalf("serial made %d merges, forest has %d edges", ref.serial.Levels, forestSize(g))
			}
			if tail := ref.base.Counter(CtrSweepTailOps); g.NumEdges() > 100 && tail < sweepWindowOps {
				t.Fatalf("%d of %d ops in the tail: expected an early close", tail, ref.serial.PairsProcessed)
			}
			runCells(t, f, ref, []int{1, 2, 4, 8}, pathInMemory)
			runCells(t, f, ref, []int{1, 4}, pathSpilled)
			// From a list that arrives sorted: frontier-fed one pair at a
			// time.
			sorted := Similarity(g)
			sorted.Sort()
			fs := oracleFamily{name: name, g: g, pl: sorted}
			runCells(t, fs, oracleReference(t, fs), []int{2}, pathPresorted)
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

// plantCount adds d to the count N of pair i: the pair then claims a
// common neighbor it does not have (d > 0) or misses one it has (d < 0).
func plantCount(pl *PairList, i int, d int32) {
	pl.Pairs[i].N += d
}

// plantDisjoint moves one endpoint of pair i — V when onV, else U — to a
// vertex of the given density class (degree at least |V|/64) that shares
// no neighbor with the other endpoint, keeping U < V: the pair keeps its N
// but its endpoints now have no common neighbor. It reports whether such a
// vertex exists.
func plantDisjoint(g *graph.Graph, pl *PairList, i int, onV, dense bool) bool {
	p := &pl.Pairs[i]
	keep := p.U
	if !onV {
		keep = p.V
	}
	for x := int32(0); x < int32(g.NumVertices()); x++ {
		if (onV && x <= p.U) || (!onV && x >= p.V) || g.Degree(int(x)) == 0 ||
			(64*g.Degree(int(x)) >= g.NumVertices()) != dense ||
			len(AppendOps(nil, g, min(x, keep), max(x, keep))) != 0 {
			continue
		}
		if onV {
			p.V = x
		} else {
			p.U = x
		}
		return true
	}
	return false
}

// plantedList is one bad-count variant of the sorted list of a graph: plant
// edits a sorted copy, and want is the index, in sorted order, of the
// first pair it breaks.
type plantedList struct {
	g     *graph.Graph
	plant func(pl *PairList)
	want  int
}

// plantedLists applies v to a sorted list and to Phase I's unsorted list
// (the same edit on the same pairs), and returns both with the sorted
// list's first broken pair.
func plantedLists(t *testing.T, v plantedList) (sorted, unsorted *PairList, first Pair) {
	t.Helper()
	sorted = Similarity(v.g)
	sorted.Sort()
	clean := slices.Clone(sorted.Pairs)
	v.plant(sorted)
	unsorted = Similarity(v.g)
	at := map[[2]int32]int{}
	for i, p := range unsorted.Pairs {
		at[[2]int32{p.U, p.V}] = i
	}
	for i, p := range clean {
		unsorted.Pairs[at[[2]int32{p.U, p.V}]] = sorted.Pairs[i]
	}
	return sorted, unsorted, sorted.Pairs[v.want]
}

// TestSweepForestClosureKeepsCheck plants bad pairs after the closure point
// and requires the boundary check to reject them. Past closure the engine
// counts a pair's ops from its N without regenerating them, so a wrong N
// there is caught by CheckPairs, which every list from outside Phase I
// crosses (and by serial Sweep, which regenerates every pair). "two-ops"
// claims one extra common neighbor on the first and the last tail pair;
// "two-ops-one-bucket" does so on two adjacent pairs of one post-closure
// similarity bucket whose Phase I order is the reverse of their sorted
// order; "last-bucket" on every pair of the last bucket, far past closure.
// The endpoint variants move U or V of a tail pair to a dense (on the
// union) or sparse (on the union with every vertex sparse) vertex that
// shares no neighbor with the other endpoint. Every variant is held to
// requireTrustedPlant: the engine closes before the planted pairs and emits
// the clean merge stream, and CheckPairs and serial Sweep name them.
func TestSweepForestClosureKeepsCheck(t *testing.T) {
	variants := map[string]plantedList{}
	for _, g := range []*graph.Graph{closureUnion(8), closureUnion(3000)} {
		pos := closedAt(t, g)
		base := Similarity(g)
		base.Sort()
		if pos >= len(base.Pairs)-1 {
			t.Fatal("the union closed without a tail")
		}
		// disjoint finds the first tail pair whose endpoint can move to a
		// vertex of the density class.
		disjoint := func(onV, dense bool) plantedList {
			for i := pos; i < len(base.Pairs); i++ {
				if plantDisjoint(g, &PairList{Pairs: slices.Clone(base.Pairs)}, i, onV, dense) {
					return plantedList{g, func(pl *PairList) { plantDisjoint(g, pl, i, onV, dense) }, i}
				}
			}
			t.Fatalf("no tail pair to plant on (V side %v, dense %v)", onV, dense)
			return plantedList{}
		}
		if g.NumVertices() < 1000 {
			variants["two-ops"] = plantedList{g, func(pl *PairList) {
				plantCount(pl, pos, 1)
				plantCount(pl, len(pl.Pairs)-1, 1)
			}, pos}
			a := reversedInBucket(t, g, base)
			variants["two-ops-one-bucket"] = plantedList{g, func(pl *PairList) {
				plantCount(pl, a, 1)
				plantCount(pl, a+1, 1)
			}, a}
			_, offs, ids := bucketLayout(base.Pairs, 1)
			last := ids[len(ids)-1]
			variants["last-bucket"] = plantedList{g, func(pl *PairList) {
				for i := offs[last]; i < offs[last+1]; i++ {
					plantCount(pl, i, 1)
				}
			}, offs[last]}
			variants["U-dense"] = disjoint(false, true)
			variants["V-dense"] = disjoint(true, true)
		} else {
			variants["U-sparse"] = disjoint(false, false)
			variants["V-sparse"] = disjoint(true, false)
		}
	}

	for name, v := range variants {
		t.Run(name, func(t *testing.T) { requireTrustedPlant(t, v) })
	}
}

// requireTrustedPlant checks a planted list whose planted pairs the engine
// retires from their counts N without regenerating their ops (past closure,
// or sealed): CheckPairs must name the first planted pair of the list it is
// given, in sorted and in Phase I order; serial Sweep must report it as the
// first failing pair in sorted order; and every engine path — T ∈ {1, 2, 4,
// 8}, spilled, frontier-fed, sorted and unsorted — must emit the clean
// merge stream.
func requireTrustedPlant(t *testing.T, v plantedList) {
	t.Helper()
	g := v.g
	sorted, unsorted, first := plantedLists(t, v)
	clean, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	wantPair := fmt.Sprintf("(%d,%d)", first.U, first.V)
	if _, err := Sweep(g, NewSortedPairList(slices.Clone(sorted.Pairs))); err == nil || !strings.Contains(err.Error(), wantPair) {
		t.Fatalf("serial sweep: error %v, want one naming pair %s", err, wantPair)
	}
	if err := CheckPairs(g, sorted); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("pair %d %s", v.want, wantPair)) {
		t.Fatalf("CheckPairs on the sorted list: error %v, want one naming pair %d %s", err, v.want, wantPair)
	}
	firstUnsorted := slices.IndexFunc(unsorted.Pairs, func(p Pair) bool {
		return len(AppendOps(nil, g, p.U, p.V)) != int(p.N)
	})
	fu := unsorted.Pairs[firstUnsorted]
	if err := CheckPairs(g, unsorted); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("pair %d (%d,%d)", firstUnsorted, fu.U, fu.V)) {
		t.Fatalf("CheckPairs on Phase I's order: error %v, want one naming pair %d (%d,%d)", err, firstUnsorted, fu.U, fu.V)
	}
	// No planted pair's ops are regenerated.
	requireCleanMerges := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(res.Merges, clean.Merges) {
			t.Fatalf("%s: merge stream differs from the clean run's", label)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := SweepParallel(g, NewSortedPairList(slices.Clone(sorted.Pairs)), workers)
		requireCleanMerges(fmt.Sprintf("T=%d", workers), res, err)
		res, err = SweepParallel(g, &PairList{Pairs: slices.Clone(unsorted.Pairs)}, workers)
		requireCleanMerges(fmt.Sprintf("unsorted T=%d", workers), res, err)
	}
	res, err := SweepSpilledOpts(context.Background(), g, &PairList{Pairs: slices.Clone(unsorted.Pairs)}, 4, SpillOptions{Dir: t.TempDir()}, nil)
	requireCleanMerges("spilled", res, err)
	res, _, err = frontierFed(g, NewSortedPairList(slices.Clone(sorted.Pairs)), 2, false, nil)
	requireCleanMerges("frontier-fed", res, err)
	res, _, err = frontierFed(g, &PairList{Pairs: slices.Clone(unsorted.Pairs)}, 2, true, nil)
	requireCleanMerges("unsorted frontier-fed", res, err)
}

// TestSweepRejectsPrefixCountMismatch plants wrong counts N before the
// closure point, where the engine regenerates a pair's ops and compares
// their number with N — unless both endpoints are sealed into one cluster
// before the pair's window (replaySeals), when it retires the pair from N
// as it does past closure. A variant whose first planted pair is
// regenerated must make every engine path — T ∈ {1, 2, 4, 8}, spilled,
// frontier-fed, from the sorted list and from Phase I's unsorted order —
// report serial Sweep's exact error, which names that pair. A variant
// whose planted pair is sealed is held to requireTrustedPlant instead: the
// engine emits the clean merge stream and CheckPairs names the pair.
//
// "first" overcounts the list's first pair; "mid" undercounts a pair in a
// later window; "two-in-window" overcounts the last and then the first pair
// of one window, so the later pair lands in an earlier worker's range only
// if the plants are read out of order; "closing" overcounts the closing
// window's last pair, which is sealed; "sealed" overcounts the first pair
// the engine retires as sealed; and "isolated" moves V of that pair to a
// vertex with no edge, which is never sealed, so the pair is regenerated
// and fails.
func TestSweepRejectsPrefixCountMismatch(t *testing.T) {
	variants := map[string]plantedList{}
	for _, tc := range []struct {
		suffix string
		g      *graph.Graph
	}{{"", closureUnion(8)}, {"-sparse", closureUnion(3000)}} {
		g := tc.g
		pos := closedAt(t, g)
		base := Similarity(g)
		base.Sort()
		// cuts are the window boundaries below closure: greedy op-count
		// cuts over the sorted list, as the engine makes them.
		var cuts []int
		ops := 0
		for i := 0; i < pos; i++ {
			if ops += int(base.Pairs[i].N); ops >= sweepWindowOps {
				cuts = append(cuts, i+1)
				ops = 0
			}
		}
		if len(cuts) < 2 {
			t.Fatalf("closed after %d windows: want at least 3 before closure", len(cuts))
		}
		mid := -1
		for i := cuts[0]; i < cuts[1]; i++ {
			if base.Pairs[i].N > 1 {
				mid = i
				break
			}
		}
		if mid < 0 {
			t.Fatal("the second window has no pair with N > 1")
		}
		sealed := slices.Index(replaySeals(g, base), true)
		if sealed < 0 {
			t.Fatal("no prefix pair is sealed")
		}
		isolated := int32(g.NumVertices() - 1)
		if g.Degree(int(isolated)) != 0 || base.Pairs[sealed].U >= isolated {
			t.Fatal("the union's last vertex is not an isolated vertex above the sealed pair")
		}
		lo, hi := cuts[0], cuts[1]-1
		variants["first"+tc.suffix] = plantedList{g, func(pl *PairList) { plantCount(pl, 0, 1) }, 0}
		variants["mid"+tc.suffix] = plantedList{g, func(pl *PairList) { plantCount(pl, mid, -1) }, mid}
		variants["two-in-window"+tc.suffix] = plantedList{g, func(pl *PairList) {
			plantCount(pl, hi, 1)
			plantCount(pl, lo, 1)
		}, lo}
		variants["closing"+tc.suffix] = plantedList{g, func(pl *PairList) { plantCount(pl, pos-1, 1) }, pos - 1}
		variants["sealed"+tc.suffix] = plantedList{g, func(pl *PairList) { plantCount(pl, sealed, 1) }, sealed}
		variants["isolated"+tc.suffix] = plantedList{g, func(pl *PairList) { pl.Pairs[sealed].V = isolated }, sealed}
	}
	// trusted lists the variants whose first planted pair is sealed.
	trusted := map[string]bool{"closing": true, "closing-sparse": true, "sealed": true, "sealed-sparse": true}

	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			sorted, unsorted, first := plantedLists(t, v)
			seals := replaySeals(v.g, sorted)
			if got := v.want < len(seals) && seals[v.want]; got != trusted[name] {
				t.Fatalf("planted pair %d sealed = %v, want %v", v.want, got, trusted[name])
			}
			if trusted[name] {
				requireTrustedPlant(t, v)
				return
			}
			// The oracle's foreign-list check, on the sorted list and on
			// Phase I's order; a sorted list is fed to the frontier one pair
			// at a time, an unsorted one lazily.
			for _, pl := range []*PairList{sorted, unsorted} {
				f := oracleFamily{name: name, g: v.g, pl: pl, wantErr: true}
				ref := oracleReference(t, f)
				if !strings.Contains(ref.err.Error(), fmt.Sprintf("(%d,%d)", first.U, first.V)) {
					t.Fatalf("serial sweep: error %v, want one naming pair (%d,%d)", ref.err, first.U, first.V)
				}
				runCells(t, f, ref, []int{1, 2, 4, 8}, pathInMemory)
				runCells(t, f, ref, []int{4}, pathSpilled)
				runCells(t, f, ref, []int{2}, pathFrontierLazy)
			}
			if err := CheckPairs(v.g, sorted); err == nil {
				t.Fatal("CheckPairs accepted the planted list")
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

// TestAppendOpsGallop checks op regeneration's walk-and-gallop
// intersection against a linear scan, on random sorted adjacency rows of
// very different lengths, from both sides.
func TestAppendOpsGallop(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		const n = 300
		b := graph.NewBuilder(n + 2)
		// Vertex n is dense, vertex n+1 sparse; their densities vary per
		// trial.
		pu, pv := src.Float64(), 0.02+0.1*src.Float64()
		for k := 0; k < n; k++ {
			if src.Float64() < pu {
				b.MustAddEdge(n, k, 1)
			}
			if src.Float64() < pv {
				b.MustAddEdge(n+1, k, 1)
			}
		}
		g := b.Build(nil)
		var want []int32
		for _, h := range g.Neighbors(n) {
			if _, ok := g.EdgeBetween(n+1, int(h.To)); ok {
				want = append(want, h.To)
			}
		}
		for _, uv := range [][2]int32{{n, n + 1}, {n + 1, n}} {
			ops := AppendOps(nil, g, uv[0], uv[1])
			if len(ops) != len(want) {
				t.Fatalf("trial %d %v: %d ops, want %d", trial, uv, len(ops), len(want))
			}
			for i, op := range ops {
				e1, _ := g.EdgeBetween(int(uv[0]), int(want[i]))
				e2, _ := g.EdgeBetween(int(uv[1]), int(want[i]))
				if op != (Op{K: want[i], E1: e1, E2: e2}) {
					t.Fatalf("trial %d %v op %d: %+v, want k=%d edges (%d,%d)", trial, uv, i, op, want[i], e1, e2)
				}
			}
		}
	}
}
