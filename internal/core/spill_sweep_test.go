package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
	"linkclust/internal/spill"
	"linkclust/internal/testkit"
)

// TestSweepSpilledDifferential is the core acceptance differential: on every
// graph family and worker counts 1..8, the out-of-core sweep must reproduce
// the serial sweep exactly, consume its pair list, and leave its spill
// parent empty (a selection of the oracle's spilled cells, oracle_test.go).
func TestSweepSpilledDifferential(t *testing.T) {
	runOracle(t, wedgeFamilies(t), workersUpTo(8), pathSpilled)
}

// TestSweepSpilledLargeRandom crosses the wide-bucket (16-bit) regime and
// many windows, over a list many spill blocks long.
func TestSweepSpilledLargeRandom(t *testing.T) {
	runOracle(t, erFamilies(300, 0.06, 0, 1), []int{1, 3, 8}, pathSpilled)
}

// TestSweepSpilledEmpty covers the degenerate entries: no pairs, a valid
// empty result, and nothing left in the spill parent.
func TestSweepSpilledEmpty(t *testing.T) {
	runOracle(t, []oracleFamily{{name: "disjoint", g: graph.DisjointEdges(5)}}, []int{4}, pathSpilled)
}

// TestSweepSpilledErrorParity feeds a foreign pair list: the spilled sweep
// must surface exactly the serial sweep's error and still clean its spill
// directory.
func TestSweepSpilledErrorParity(t *testing.T) {
	runOracle(t, foreignFamilies(t), workersUpTo(8), pathSpilled)
}

// TestSweepSpilledCounters checks the spilled path's instrumentation: the
// bytes counter is exactly the file (header, one record per pair, trailer)
// and so worker-invariant, and the sweep's own counters — the sorted prefix
// included — read what the in-memory engine reads on the same list.
func TestSweepSpilledCounters(t *testing.T) {
	runOracle(t, erFamilies(200, 0.08, 4), []int{1, 4, 8}, pathSpilled)
}

// TestSweepSpilledWriteCancelNoLeak cancels the spilled sweep at its entry
// and at successive block polls of the write phase: every run returns
// context.Canceled with the pair list intact, the spill parent is empty,
// and no goroutine outlives the calls.
func TestSweepSpilledWriteCancelNoLeak(t *testing.T) {
	g := graph.ErdosRenyi(300, 0.06, rng.New(0))
	n := len(Similarity(g).Pairs)
	if n < 10*spillBlockPairs {
		t.Fatalf("%d pairs: want at least 10 spill blocks", n)
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, k := range []int64{0, 1, 2, 5, 9} {
		for _, workers := range []int{1, 4} {
			pl := Similarity(g)
			res, err := SweepSpilledOpts(testkit.NewCountdownCtx(k), g, pl, workers, SpillOptions{Dir: dir}, nil)
			testkit.RequireCanceled(t, fmt.Sprintf("k=%d T=%d", k, workers), res, err)
			if len(pl.Pairs) != n {
				t.Fatalf("k=%d T=%d: a write-phase cancel consumed the pair list", k, workers)
			}
			testkit.RequireEmptyDir(t, dir)
		}
	}
	testkit.WaitGoroutines(t, base)
}

// TestSweepSpilledReadCancelNoLeak cancels the spilled sweep between two
// blocks of its read-back: the run returns context.Canceled, the pair list
// is gone (it was released to disk), the spill parent is empty, and no
// goroutine outlives the call.
func TestSweepSpilledReadCancelNoLeak(t *testing.T) {
	defer fault.Reset()
	g := graph.ErdosRenyi(300, 0.06, rng.New(0))
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		fault.Reset()
		fault.Arm(fault.SlowProducer, 2, cancel)
		pl := Similarity(g)
		res, err := SweepSpilledOpts(ctx, g, pl, workers, SpillOptions{Dir: dir}, nil)
		cancel()
		testkit.RequireCanceled(t, fmt.Sprintf("T=%d", workers), res, err)
		if pl.Pairs != nil {
			t.Fatalf("T=%d: read-phase cancel left the pair list claiming to be valid", workers)
		}
		testkit.RequireEmptyDir(t, dir)
	}
	testkit.WaitGoroutines(t, base)
}

// TestSweepSpilledAllocs bounds what the disk round trip allocates: on a
// word graph of over 100k pairs, the spilled sweep may allocate at most the
// read-back list (24 bytes per pair) plus 1 MiB more than the in-memory
// engine sweeping a clone of the same list. TotalAlloc is cumulative, so
// the comparison does not depend on when the collector runs.
func TestSweepSpilledAllocs(t *testing.T) {
	g, err := smallPresetGraph()
	if err != nil {
		t.Fatal(err)
	}
	master := Similarity(g)
	k1 := uint64(len(master.Pairs))
	if k1 < 100_000 {
		t.Fatalf("%d pairs: want at least 100k", k1)
	}
	dir := t.TempDir()
	alloc := func(run func(pl *PairList) error) uint64 {
		pl := &PairList{Pairs: slices.Clone(master.Pairs)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(pl); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	inMemory := alloc(func(pl *PairList) error {
		_, err := SweepParallelCtx(context.Background(), g, pl, 2, nil)
		return err
	})
	spilled := alloc(func(pl *PairList) error {
		_, err := SweepSpilledOpts(context.Background(), g, pl, 2, SpillOptions{Dir: dir}, nil)
		return err
	})
	limit := inMemory + k1*uint64(unsafe.Sizeof(Pair{})) + 1<<20
	t.Logf("%d pairs: spilled sweep allocated %d bytes, in-memory %d", k1, spilled, inMemory)
	if spilled > limit {
		t.Fatalf("spilled sweep allocated %d bytes, in-memory %d: over the limit %d (24 B x %d pairs + 1 MiB)",
			spilled, inMemory, limit, k1)
	}
}

// requireSpillError asserts err is one of the typed spill read errors.
func requireSpillError(t *testing.T, label string, err error) {
	t.Helper()
	if !errors.Is(err, spill.ErrChecksum) && !errors.Is(err, spill.ErrTruncated) && !errors.Is(err, spill.ErrFormat) {
		t.Fatalf("%s: error %v, want a typed spill error", label, err)
	}
}

// TestSpilledFileCorruption corrupts a spill file written by the spilled
// sweep's writer in every way one byte can: every single-byte flip — header,
// records or trailer — and every truncation must fail the read-back with a
// typed spill error, so no wrong list ever reaches the sweep.
func TestSpilledFileCorruption(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.4, rng.New(5))
	pl := Similarity(g)
	if len(pl.Pairs) < 3 {
		t.Fatalf("only %d pairs", len(pl.Pairs))
	}
	f, err := spill.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Remove()
	if err := writeSpill(context.Background(), f, pl); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	put := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(f.Path(), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := range orig {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			b := bytes.Clone(orig)
			b[i] ^= mask
			put(b)
			_, err := readSpill(context.Background(), f)
			requireSpillError(t, fmt.Sprintf("flip %#x at byte %d of %d", mask, i, len(orig)), err)
		}
	}
	for n := 0; n < len(orig); n++ {
		put(orig[:n])
		_, err := readSpill(context.Background(), f)
		requireSpillError(t, fmt.Sprintf("truncated to %d of %d bytes", n, len(orig)), err)
	}
	put(orig)
	back, err := readSpill(context.Background(), f)
	if err != nil {
		t.Fatalf("restored file rejected: %v", err)
	}
	if !slices.Equal(back.Pairs, pl.Pairs) || back.Sorted() != pl.Sorted() {
		t.Fatal("restored file read back a different list")
	}
}

// TestSweepSpilledPreCanceled: a canceled context must return before any
// spill file is created.
func TestSweepSpilledPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := graph.ErdosRenyi(60, 0.15, rng.New(3))
	dir := t.TempDir()
	pl := Similarity(g)
	res, err := SweepSpilledOpts(ctx, g, pl, 4, SpillOptions{Dir: dir}, nil)
	testkit.RequireCanceled(t, "pre-canceled", res, err)
	if pl.Pairs == nil {
		t.Fatal("pre-canceled run consumed the pair list")
	}
	testkit.RequireEmptyDir(t, dir)
}

// TestSweepSpilledBadDir: an unusable spill parent must fail with a typed
// error before the pair list is consumed — the contract the facade's
// coarse-degrade fallback relies on.
func TestSweepSpilledBadDir(t *testing.T) {
	g := graph.ErdosRenyi(60, 0.15, rng.New(3))
	pl := Similarity(g)
	_, err := SweepSpilledOpts(context.Background(), g, pl, 4,
		SpillOptions{Dir: "/nonexistent/spill/parent"}, nil)
	if err == nil {
		t.Fatal("spilled sweep accepted an unusable directory")
	}
	if pl.Pairs == nil {
		t.Fatal("write-phase failure consumed the pair list")
	}
	if _, err := Sweep(g, pl); err != nil {
		t.Fatalf("pair list unusable after failed spill: %v", err)
	}
}

// TestSweepSpilledWriteFaultKeepsList: an injected block-write fault (the
// deterministic ENOSPC) must surface spill.ErrWriteFault, keep the pair
// list intact and sweepable, and leave the spill parent empty.
func TestSweepSpilledWriteFaultKeepsList(t *testing.T) {
	defer fault.Reset()
	g := graph.ErdosRenyi(120, 0.1, rng.New(9))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(fault.SpillWrite, 1, nil)
	dir := t.TempDir()
	pl := Similarity(g)
	_, spErr := SweepSpilledOpts(context.Background(), g, pl, 4, SpillOptions{Dir: dir}, nil)
	if !errors.Is(spErr, spill.ErrWriteFault) {
		t.Fatalf("error %v, want spill.ErrWriteFault", spErr)
	}
	fault.Reset()
	if pl.Pairs == nil {
		t.Fatal("write fault consumed the pair list")
	}
	testkit.RequireEmptyDir(t, dir)
	res, err := Sweep(g, pl)
	if err != nil {
		t.Fatalf("reusing pair list after write fault: %v", err)
	}
	requireIdenticalSweep(t, "reuse after write fault", res, serial)
}

// TestSweepSpilledReadFaultCleansUp: an injected read-back corruption must
// surface spill.ErrChecksum and still remove the spill directory; the pair
// list is gone (it was released to disk), which is the documented contract.
func TestSweepSpilledReadFaultCleansUp(t *testing.T) {
	defer fault.Reset()
	g := graph.ErdosRenyi(120, 0.1, rng.New(9))
	fault.Arm(fault.SpillRead, 1, nil)
	dir := t.TempDir()
	pl := Similarity(g)
	_, err := SweepSpilledOpts(context.Background(), g, pl, 4, SpillOptions{Dir: dir}, nil)
	if !errors.Is(err, spill.ErrChecksum) {
		t.Fatalf("error %v, want spill.ErrChecksum", err)
	}
	fault.Reset()
	if pl.Pairs != nil {
		t.Fatal("read-phase failure left the pair list claiming to be valid")
	}
	testkit.RequireEmptyDir(t, dir)
}

// TestSimBucketOrder pins the radix key's two load-bearing properties:
// bucket ids are non-decreasing as similarity decreases, and equal
// similarities share a bucket — together these make the concatenation of
// per-bucket-sorted runs equal the global sort.
func TestSimBucketOrder(t *testing.T) {
	sims := []float64{
		2.5, 1.0, 0.999999, 0.75, 0.5, 0.5, 0.25, 0.1, 1e-3, 1e-9, 5e-300,
		0.0, math.Copysign(0, -1), -1e-9, -0.5, -1, -3,
	}
	const shift = 64 - bucketBits
	for i := 1; i < len(sims); i++ {
		hi, lo := sims[i-1], sims[i]
		bh, bl := simBucket(hi, shift), simBucket(lo, shift)
		if hi > lo && bh > bl {
			t.Errorf("simBucket(%v) = %d > simBucket(%v) = %d; buckets must ascend as similarity descends", hi, bh, lo, bl)
		}
		if hi == lo && bh != bl {
			t.Errorf("equal similarities %v landed in buckets %d and %d", hi, bh, bl)
		}
	}
	// ±0 compare equal as floats and must share a bucket, or a tie could be
	// split across a bucket boundary and break the concatenation order.
	if simBucket(0, shift) != simBucket(math.Copysign(0, -1), shift) {
		t.Errorf("+0 and -0 landed in different buckets (%d vs %d)",
			simBucket(0, shift), simBucket(math.Copysign(0, -1), shift))
	}
}

// TestPartitionPairsIsSortPrefix checks the sort cursor's bucket partition
// against the full sort: placing every pair at its bucket's offset and sorting each
// bucket must reproduce PairList.Sort exactly, for any histogram worker
// count — so the bucket offsets are the buckets' positions in list L.
func TestPartitionPairsIsSortPrefix(t *testing.T) {
	g := graph.ErdosRenyi(150, 0.08, rng.New(11))
	want := Similarity(g)
	want.Sort()
	for _, workers := range []int{1, 2, 8} {
		pairs := Similarity(g).Pairs
		shift, offs, ids := bucketLayout(pairs, workers)
		if got := offs[len(offs)-1]; got != len(pairs) {
			t.Fatalf("workers=%d: partition covers %d pairs, want %d", workers, got, len(pairs))
		}
		sorted := make([]Pair, len(pairs))
		cur := append([]int(nil), offs...)
		for _, p := range pairs {
			b := simBucket(p.Sim, shift)
			sorted[cur[b]] = p
			cur[b]++
		}
		covered := 0
		for _, b := range ids {
			sub := &PairList{Pairs: sorted[offs[b]:offs[b+1]]}
			sub.SortWorkers(1)
			covered += len(sub.Pairs)
		}
		if covered != len(pairs) {
			t.Fatalf("workers=%d: non-empty buckets carry %d pairs, want %d", workers, covered, len(pairs))
		}
		for i := range want.Pairs {
			gp, wp := &sorted[i], &want.Pairs[i]
			if gp.U != wp.U || gp.V != wp.V || gp.Sim != wp.Sim {
				t.Fatalf("workers=%d: pair %d = (%d,%d,%v), want (%d,%d,%v)",
					workers, i, gp.U, gp.V, gp.Sim, wp.U, wp.V, wp.Sim)
			}
		}
	}
}
