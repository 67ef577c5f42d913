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
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
	"linkclust/internal/spill"
)

// faultReset clears process-global fault armings; deferred by every test
// that arms a point.
func faultReset(t *testing.T) {
	t.Helper()
	fault.Reset()
}

func armSpillWrite(t *testing.T) {
	t.Helper()
	fault.Arm(fault.SpillWrite, 1, nil)
}

func armSpillRead(t *testing.T) {
	t.Helper()
	fault.Arm(fault.SpillRead, 1, nil)
}

// requireEmptySpillParent asserts the spilled sweep left nothing behind in
// the directory it was told to spill under.
func requireEmptySpillParent(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading spill parent: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill parent not cleaned: %d entries left, first %q", len(entries), entries[0].Name())
	}
}

// TestSweepSpilledDifferential is the core acceptance differential: on every
// graph family and worker counts 1..8, the out-of-core sweep must reproduce
// the serial sweep exactly, consume its pair list, and leave its spill
// parent empty.
func TestSweepSpilledDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			dir := t.TempDir()
			for workers := 1; workers <= 8; workers++ {
				pl := Similarity(g)
				res, err := SweepSpilledOpts(context.Background(), g, pl, workers, SpillOptions{Dir: dir}, nil)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("spilled T=%d vs serial", workers), res, serial)
				if pl.Pairs != nil {
					t.Fatalf("T=%d: pair list not consumed by spilled sweep", workers)
				}
				requireEmptySpillParent(t, dir)
			}
		})
	}
}

// TestSweepSpilledLargeRandom crosses the wide-bucket (16-bit) regime and
// many windows, over a list many spill blocks long.
func TestSweepSpilledLargeRandom(t *testing.T) {
	for seed := uint64(0); seed < 2; seed++ {
		g := graph.ErdosRenyi(300, 0.06, rng.New(seed))
		serial, err := Sweep(g, Similarity(g))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{1, 3, 8} {
			res, err := SweepSpilledOpts(context.Background(), g, Similarity(g), workers, SpillOptions{}, nil)
			if err != nil {
				t.Fatalf("seed %d T=%d: %v", seed, workers, err)
			}
			requireIdenticalSweep(t, fmt.Sprintf("seed %d T=%d", seed, workers), res, serial)
		}
	}
}

// TestSweepSpilledEmpty covers the degenerate entry: no pairs, a valid
// empty result, and nothing left in the spill parent.
func TestSweepSpilledEmpty(t *testing.T) {
	g := graph.DisjointEdges(5)
	dir := t.TempDir()
	res, err := SweepSpilledOpts(context.Background(), g, Similarity(g), 4, SpillOptions{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 0 || res.PairsProcessed != 0 {
		t.Fatalf("empty graph produced %d merges, %d ops", len(res.Merges), res.PairsProcessed)
	}
	requireEmptySpillParent(t, dir)
}

// TestSweepSpilledErrorParity feeds a foreign pair list: the spilled sweep
// must surface exactly the serial sweep's error and still clean its spill
// directory.
func TestSweepSpilledErrorParity(t *testing.T) {
	g, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	foreign := graph.Complete(48)
	_, serialErr := Sweep(g, Similarity(foreign))
	if serialErr == nil {
		t.Fatal("serial sweep accepted a foreign pair list")
	}
	dir := t.TempDir()
	for workers := 1; workers <= 8; workers++ {
		_, spErr := SweepSpilledOpts(context.Background(), g, Similarity(foreign), workers, SpillOptions{Dir: dir}, nil)
		if spErr == nil {
			t.Fatalf("T=%d: spilled sweep accepted a foreign pair list", workers)
		}
		if spErr.Error() != serialErr.Error() {
			t.Fatalf("T=%d: error %q, want serial's %q", workers, spErr, serialErr)
		}
		requireEmptySpillParent(t, dir)
	}
}

// TestSweepSpilledCounters checks the spilled path's instrumentation: the
// bytes counter is exactly the file (header, one record per pair, trailer)
// and so worker-invariant, and the sweep's own counters — the sorted prefix
// included — read what the in-memory engine reads on the same list.
func TestSweepSpilledCounters(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.08, rng.New(4))
	k1 := int64(len(Similarity(g).Pairs))
	wantBytes := pairListHeaderSize + pairRecordFixed*k1 + 4
	for _, workers := range []int{1, 4, 8} {
		rec := obs.New()
		res, err := SweepSpilledOpts(context.Background(), g, Similarity(g), workers, SpillOptions{}, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		if got := rec.Counter(CtrSweepPairsProcessed); got != res.PairsProcessed {
			t.Fatalf("T=%d: pairs counter %d, want %d", workers, got, res.PairsProcessed)
		}
		if got := rec.Counter(CtrSpillBytesWritten); got != wantBytes {
			t.Fatalf("T=%d: %d spill bytes, want %d for %d pairs", workers, got, wantBytes, k1)
		}
		mem := obs.New()
		if _, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, mem); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{CtrSweepSortedPairs, CtrSweepWindows, CtrSweepTailOps, CtrSweepChainRewrites} {
			if got, want := rec.Counter(c), mem.Counter(c); got != want {
				t.Fatalf("T=%d: %s = %d spilled, %d in memory", workers, c, got, want)
			}
		}
	}
}

// countdownCtx reports context.Canceled from its k-th Err call on: a
// cancellation that lands at an exact poll.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitNoLeaks polls until the goroutine count falls back to base.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
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
			res, err := SweepSpilledOpts(newCountdownCtx(k), g, pl, workers, SpillOptions{Dir: dir}, nil)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("k=%d T=%d: got (%v, %v), want (nil, context.Canceled)", k, workers, res, err)
			}
			if len(pl.Pairs) != n {
				t.Fatalf("k=%d T=%d: a write-phase cancel consumed the pair list", k, workers)
			}
			requireEmptySpillParent(t, dir)
		}
	}
	waitNoLeaks(t, base)
}

// TestSweepSpilledReadCancelNoLeak cancels the spilled sweep between two
// blocks of its read-back: the run returns context.Canceled, the pair list
// is gone (it was released to disk), the spill parent is empty, and no
// goroutine outlives the call.
func TestSweepSpilledReadCancelNoLeak(t *testing.T) {
	defer faultReset(t)
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
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("T=%d: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
		if pl.Pairs != nil {
			t.Fatalf("T=%d: read-phase cancel left the pair list claiming to be valid", workers)
		}
		requireEmptySpillParent(t, dir)
	}
	waitNoLeaks(t, base)
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
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if pl.Pairs == nil {
		t.Fatal("pre-canceled run consumed the pair list")
	}
	requireEmptySpillParent(t, dir)
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
	defer faultReset(t)
	g := graph.ErdosRenyi(120, 0.1, rng.New(9))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	armSpillWrite(t)
	dir := t.TempDir()
	pl := Similarity(g)
	_, spErr := SweepSpilledOpts(context.Background(), g, pl, 4, SpillOptions{Dir: dir}, nil)
	if !errors.Is(spErr, spill.ErrWriteFault) {
		t.Fatalf("error %v, want spill.ErrWriteFault", spErr)
	}
	faultReset(t)
	if pl.Pairs == nil {
		t.Fatal("write fault consumed the pair list")
	}
	requireEmptySpillParent(t, dir)
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
	defer faultReset(t)
	g := graph.ErdosRenyi(120, 0.1, rng.New(9))
	armSpillRead(t)
	dir := t.TempDir()
	pl := Similarity(g)
	_, err := SweepSpilledOpts(context.Background(), g, pl, 4, SpillOptions{Dir: dir}, nil)
	if !errors.Is(err, spill.ErrChecksum) {
		t.Fatalf("error %v, want spill.ErrChecksum", err)
	}
	faultReset(t)
	if pl.Pairs != nil {
		t.Fatal("read-phase failure left the pair list claiming to be valid")
	}
	requireEmptySpillParent(t, dir)
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
