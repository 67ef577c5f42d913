package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
	"linkclust/internal/testkit"
)

// The differential oracle of the fine-grained sweep. Serial Sweep —
// Algorithm 2 as the paper writes it — is the one reference. Every way this
// package can run the sweep is one sweepPath, and every graph the
// differential tests sweep is an oracleFamily. A cell is one (path, family,
// worker count); checkCell holds each cell to serial Sweep bit for bit and
// to the in-memory engine's single-worker counters. The per-feature
// differential tests are selections of these cells (runOracle), and
// TestSweepOracle runs the cells of oracleFamilies no selection runs.
//
// A new path registers by adding a sweepPath — a function that sweeps a
// fresh copy of the family's pair list at a given worker count, recording
// into rec, plus whether it sorts an unsorted list as it reads it — and
// adding it to TestSweepOracle.

// requireIdenticalSweep asserts that two sweep results are exactly equal:
// bitwise-identical merge streams (Level, A, B, Into, Sim per event, in
// order), element-wise identical final assignments, and matching summary
// fields. This is the engine's contract — not dendrogram equivalence up to
// reordering, but the serial stream itself.
func requireIdenticalSweep(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Merges) != len(want.Merges) {
		t.Fatalf("%s: %d merges, want %d", label, len(got.Merges), len(want.Merges))
	}
	for i := range want.Merges {
		if got.Merges[i] != want.Merges[i] {
			t.Fatalf("%s: merge %d = %+v, want %+v", label, i, got.Merges[i], want.Merges[i])
		}
	}
	ga, wa := got.Chain.Assignments(), want.Chain.Assignments()
	if len(ga) != len(wa) {
		t.Fatalf("%s: %d assignments, want %d", label, len(ga), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("%s: assignment[%d] = %d, want %d", label, i, ga[i], wa[i])
		}
	}
	if got.NumClusters() != want.NumClusters() {
		t.Fatalf("%s: %d clusters, want %d", label, got.NumClusters(), want.NumClusters())
	}
	if got.Levels != want.Levels {
		t.Fatalf("%s: %d levels, want %d", label, got.Levels, want.Levels)
	}
	if got.PairsProcessed != want.PairsProcessed {
		t.Fatalf("%s: %d ops processed, want %d", label, got.PairsProcessed, want.PairsProcessed)
	}
}

// sweepPath is one way of running the sweep. sweep owns pl, a fresh copy of
// the family's list, and records into rec; it may check
// what only its path promises (a consumed list, an empty spill directory)
// and fail t.
type sweepPath struct {
	name string
	// sorts is set when the path sorts an unsorted list as it reads it, and
	// so records sweep.sorted_pairs.
	sorts bool
	sweep func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error)
}

var (
	// pathInMemory is the production engine on an in-memory list.
	pathInMemory = sweepPath{name: "in-memory", sorts: true,
		sweep: func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
			return SweepParallelCtx(context.Background(), g, pl, workers, rec)
		}}

	// pathFrontier feeds the engine bucket by bucket, each sorted only when
	// it is reached — the contract SweepParallelCtx relies on — and requires
	// the engine's buffer to end in list-L order.
	pathFrontier = sweepPath{name: "frontier",
		sweep: func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
			res, buf, err := frontierFed(g, pl, workers, false, rec)
			if err == nil && !slices.IsSortedFunc(buf, cmpPairs) {
				t.Fatalf("frontier T=%d: engine buffer not in list-L order", workers)
			}
			return res, err
		}}

	// pathFrontierLazy is pathFrontier with the closure rule of
	// SweepParallelCtx: once the engine closes, buckets are fed unsorted.
	pathFrontierLazy = sweepPath{name: "frontier-lazy", sorts: true,
		sweep: func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
			res, _, err := frontierFed(g, pl, workers, true, rec)
			return res, err
		}}

	// pathPresorted sorts the list first and advances the frontier one pair
	// at a time, the finest feed: window cuts depend only on op counts.
	pathPresorted = sweepPath{name: "presorted",
		sweep: func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
			pl.Sort()
			res, _, err := frontierFed(g, pl, workers, false, rec)
			return res, err
		}}

	// pathSpilled is the out-of-core sweep: it must consume the list, write
	// exactly the file's bytes (header, one record per pair, trailer), and
	// leave its spill parent empty.
	pathSpilled = sweepPath{name: "spilled", sorts: true,
		sweep: func(t *testing.T, g *graph.Graph, pl *PairList, workers int, rec *obs.Recorder) (*Result, error) {
			dir := t.TempDir()
			k1 := int64(len(pl.Pairs))
			res, err := SweepSpilledOpts(context.Background(), g, pl, workers, SpillOptions{Dir: dir}, rec)
			testkit.RequireEmptyDir(t, dir)
			if err != nil {
				return res, err
			}
			if pl.Pairs != nil {
				t.Fatalf("spilled T=%d: pair list not consumed", workers)
			}
			if got, want := rec.Counter(CtrSpillBytesWritten), pairListHeaderSize+pairRecordFixed*k1+4; got != want {
				t.Fatalf("spilled T=%d: %d spill bytes, want %d for %d pairs", workers, got, want, k1)
			}
			return res, nil
		}}
)

// frontierFed drives the windowed engine through consume in frontier
// increments, the way SweepParallelCtx feeds it: the pairs of pl are placed in
// their similarity buckets, each bucket is sorted in turn (with lazy, only
// until the engine closes), and its end is handed to the engine as the new
// frontier. A pl already marked sorted skips the partition and is fed one
// pair at a time. pl itself is left untouched; the engine's pair buffer is
// returned alongside the result.
func frontierFed(g *graph.Graph, pl *PairList, workers int, lazy bool, rec *obs.Recorder) (*Result, []Pair, error) {
	n := len(pl.Pairs)
	buf := make([]Pair, n)
	e := &sweepEngine{g: g, pl: &PairList{Pairs: buf}, workers: workers, ctx: context.Background()}
	var frontiers []int
	if pl.Sorted() {
		copy(buf, pl.Pairs)
		for f := 1; f <= n; f++ {
			frontiers = append(frontiers, f)
		}
	} else {
		shift, offs, ids := bucketLayout(pl.Pairs, workers)
		if lazy {
			e.cur = &SortCursor{shift: shift, offs: offs, ids: ids, pl: e.pl, placed: len(ids)}
		}
		cur := slices.Clone(offs)
		for _, p := range pl.Pairs {
			b := simBucket(p.Sim, shift)
			buf[cur[b]] = p
			cur[b]++
		}
		for _, b := range ids {
			frontiers = append(frontiers, offs[b+1])
		}
	}

	e.init()
	lo := 0
	for _, f := range frontiers {
		if !pl.Sorted() && (!lazy || !e.closed) {
			slices.SortFunc(buf[lo:f], cmpPairs)
		}
		if err := e.consume(f, false); err != nil {
			return e.res, buf, err
		}
		lo = f
	}
	if err := e.consume(n, true); err != nil {
		return e.res, buf, err
	}
	recordSweepEngine(rec, e)
	return e.res, buf, nil
}

// oracleFamily is one graph the oracle sweeps. Its cells sweep Similarity(g)
// or, when pl is set, a copy of pl — sorted or not, as pl is. wantErr marks
// a list serial Sweep must reject, such as another graph's list or one with
// planted faults; every path must then fail with serial's exact error.
type oracleFamily struct {
	name    string
	g       *graph.Graph
	pl      *PairList
	wantErr bool
}

// list returns a fresh copy of the family's pair list.
func (f oracleFamily) list() *PairList {
	if f.pl == nil {
		return Similarity(f.g)
	}
	if f.pl.Sorted() {
		return NewSortedPairList(slices.Clone(f.pl.Pairs))
	}
	return &PairList{Pairs: slices.Clone(f.pl.Pairs)}
}

// wedgeFamilies is wedgeTestGraphs as oracle families.
func wedgeFamilies(t testing.TB) []oracleFamily {
	var out []oracleFamily
	for name, g := range wedgeTestGraphs(t) {
		out = append(out, oracleFamily{name: name, g: g})
	}
	return out
}

// erFamilies returns Erdős–Rényi G(n, p) graphs, one per seed.
func erFamilies(n int, p float64, seeds ...uint64) []oracleFamily {
	var out []oracleFamily
	for _, s := range seeds {
		out = append(out, oracleFamily{name: fmt.Sprintf("erdos-renyi-%d-%g-seed%d", n, p, s), g: graph.ErdosRenyi(n, p, rng.New(s))})
	}
	return out
}

// foreignFamilies sweeps the circulant C(48, 6) with the pair list of the
// complete graph on the same vertices: serial Sweep reports the first
// operation whose incident edge is missing.
func foreignFamilies(t testing.TB) []oracleFamily {
	g, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleFamily{{name: "foreign", g: g, pl: Similarity(graph.Complete(48)), wantErr: true}}
}

// oracleFamilies is every family the oracle knows: the shared families, the
// random graphs big enough to cut many windows, span many similarity
// buckets and fan resolution out, and the foreign list.
func oracleFamilies(t testing.TB) []oracleFamily {
	fams := wedgeFamilies(t)
	fams = append(fams, erFamilies(300, 0.06, 0, 1, 2, 3)...)
	fams = append(fams, erFamilies(400, 0.05, 1, 2)...)
	return append(fams, foreignFamilies(t)...)
}

// oracleRef is what a family's cells are checked against: serial Sweep's
// result or error, and the counters of the in-memory engine at one worker.
type oracleRef struct {
	serial *Result
	err    error
	base   *obs.Recorder
}

// oracleReference sweeps the family serially. Serial Sweep must fail on a
// wantErr family and succeed on every other: the reference itself is
// checked before any path is held to it.
func oracleReference(t *testing.T, f oracleFamily) oracleRef {
	t.Helper()
	serial, err := Sweep(f.g, f.list())
	switch {
	case f.wantErr && err == nil:
		t.Fatalf("serial sweep accepted %s's faulty pair list", f.name)
	case f.wantErr:
		return oracleRef{err: err}
	case err != nil:
		t.Fatalf("serial: %v", err)
	}
	ref := oracleRef{serial: serial, base: obs.New()}
	if _, err := SweepParallelCtx(context.Background(), f.g, f.list(), 1, ref.base); err != nil {
		t.Fatalf("in-memory T=1: %v", err)
	}
	return ref
}

// workersUpTo returns the worker counts 1..n.
func workersUpTo(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i + 1
	}
	return ws
}

// runOracle runs and checks the cells paths × families × workers, one
// subtest per family.
func runOracle(t *testing.T, families []oracleFamily, workers []int, paths ...sweepPath) {
	t.Helper()
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			runCells(t, f, oracleReference(t, f), workers, paths...)
		})
	}
}

// runCells runs and checks the cells paths × workers of one family.
func runCells(t *testing.T, f oracleFamily, ref oracleRef, workers []int, paths ...sweepPath) {
	t.Helper()
	for _, p := range paths {
		for _, w := range workers {
			rec := obs.New()
			res, err := p.sweep(t, f.g, f.list(), w, rec)
			checkCell(t, fmt.Sprintf("%s T=%d", p.name, w), p, ref, res, err, rec)
		}
	}
}

// checkCell is the one check of a cell. A foreign list must fail with
// serial's exact error. Otherwise the result must equal serial's bitwise;
// the recorded counters must agree with the result; every worker-invariant
// counter must equal the in-memory engine's at T=1 (so also the path's own
// at T=1), and so must the count of sealed pairs; and a path that sorts as
// it reads must have sorted exactly as far as the in-memory engine.
func checkCell(t *testing.T, label string, p sweepPath, ref oracleRef, res *Result, err error, rec *obs.Recorder) {
	t.Helper()
	if ref.err != nil {
		if err == nil || err.Error() != ref.err.Error() {
			t.Fatalf("%s: error %v, want serial's %q", label, err, ref.err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireIdenticalSweep(t, label+" vs serial", res, ref.serial)
	if got := rec.Counter(CtrSweepPairsProcessed); got != res.PairsProcessed {
		t.Fatalf("%s: pairs counter %d, want %d", label, got, res.PairsProcessed)
	}
	if got := rec.Counter(CtrSweepMerges); got != int64(len(res.Merges)) {
		t.Fatalf("%s: merges counter %d, want %d", label, got, len(res.Merges))
	}
	if got := rec.Counter(CtrSweepChainRewrites); got != res.Chain.Changes() {
		t.Fatalf("%s: rewrites counter %d, want %d", label, got, res.Chain.Changes())
	}
	if retired := rec.Counter(CtrSweepMerges) + rec.Counter(CtrSweepNoopDrops); retired != res.PairsProcessed {
		t.Fatalf("%s: merges + drops = %d, want every op retired once (%d)", label, retired, res.PairsProcessed)
	}
	if res.Levels > 0 && rec.Counter(CtrSweepWindows) < 1 {
		t.Fatalf("%s: %d merges but no window recorded", label, res.Levels)
	}
	for _, c := range InvariantCounters {
		if g, w := rec.Counter(c), ref.base.Counter(c); g != w {
			t.Fatalf("%s: %s = %d, in-memory T=1 %d", label, c, g, w)
		}
	}
	if g, w := rec.Counter(CtrSweepSealedPairs), ref.base.Counter(CtrSweepSealedPairs); g != w {
		t.Fatalf("%s: sealed %d pairs, in-memory T=1 %d", label, g, w)
	}
	if p.sorts {
		if g, w := rec.Counter(CtrSweepSortedPairs), ref.base.Counter(CtrSweepSortedPairs); g != w {
			t.Fatalf("%s: sorted %d pairs, in-memory T=1 %d", label, g, w)
		}
	}
}

// TestSweepOracle runs the cells of oracleFamilies that no selection runs,
// so that over the suite every path sweeps every family: the presorted path
// everywhere, and on the random and foreign families what the in-memory,
// frontier, lazy and spilled selections leave out, at one worker and at
// four. A new path registers here, on every family; a
// selection that takes over cells drops them here.
func TestSweepOracle(t *testing.T) {
	unselected := map[string][]sweepPath{
		"erdos-renyi-300-0.06-seed0": {pathFrontierLazy},
		"erdos-renyi-300-0.06-seed1": {pathFrontierLazy},
		"erdos-renyi-300-0.06-seed2": {pathFrontierLazy, pathSpilled},
		"erdos-renyi-300-0.06-seed3": {pathFrontierLazy, pathFrontier, pathSpilled},
		"erdos-renyi-400-0.05-seed1": {pathFrontierLazy, pathFrontier, pathSpilled},
		"erdos-renyi-400-0.05-seed2": {pathFrontierLazy, pathInMemory, pathFrontier},
		"foreign":                    {pathFrontierLazy},
	}
	for _, f := range oracleFamilies(t) {
		paths := append(unselected[f.name], pathPresorted)
		delete(unselected, f.name)
		t.Run(f.name, func(t *testing.T) {
			runCells(t, f, oracleReference(t, f), []int{1, 4}, paths...)
		})
	}
	if len(unselected) > 0 {
		t.Fatalf("no family named %v", slices.Sorted(maps.Keys(unselected)))
	}
}
