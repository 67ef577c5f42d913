package linkclust

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/fault"
	"linkclust/internal/testkit"
)

// sweepSpilled runs the out-of-core engine over pl through the facade's
// engine dispatch.
func sweepSpilled(ctx context.Context, g *Graph, pl *PairList, workers int, dir string, rec *Recorder) (*Result, error) {
	res, _, err := RunSweep(ctx, g, pl, ClusterOptions{Workers: workers, Recorder: rec, Engine: EngineSpill, SpillDir: dir})
	return res, err
}

// ctxSweeps is every cancellable facade sweep over a given pair list:
// serial, in memory and spilled.
var ctxSweeps = []struct {
	name string
	run  func(ctx context.Context, g *Graph, pl *PairList, workers int, rec *Recorder) (*Result, error)
}{
	{"SweepCtx", func(ctx context.Context, g *Graph, pl *PairList, _ int, rec *Recorder) (*Result, error) {
		return SweepCtx(ctx, g, pl, rec)
	}},
	{"SweepParallelCtx", SweepParallelCtx},
	{"spill", func(ctx context.Context, g *Graph, pl *PairList, workers int, rec *Recorder) (*Result, error) {
		return sweepSpilled(ctx, g, pl, workers, "", rec)
	}},
}

// canceledCtx returns an already-canceled real context.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestCancelPreCanceledParity: with an already-canceled context, every Ctx
// entry point at every worker count returns context.Canceled — never a
// partial result, never a different error — and leaks nothing.
func TestCancelPreCanceledParity(t *testing.T) {
	g := raceGraph(7)
	base := runtime.NumGoroutine()
	for workers := 1; workers <= 8; workers++ {
		ctx := canceledCtx()
		pl, err := SimilarityCtx(ctx, g, workers, nil)
		testkit.RequireCanceled(t, fmt.Sprintf("SimilarityCtx T=%d", workers), pl, err)
		for _, e := range ctxSweeps {
			res, err := e.run(ctx, g, core.Similarity(g), workers, nil)
			testkit.RequireCanceled(t, fmt.Sprintf("%s T=%d", e.name, workers), res, err)
		}
		res, err := ClusterCtx(ctx, g, ClusterOptions{Workers: workers})
		testkit.RequireCanceled(t, fmt.Sprintf("ClusterCtx T=%d", workers), res, err)
		cres, err := CoarseClusterCtx(ctx, g, DefaultCoarseParams(), ClusterOptions{Workers: workers})
		testkit.RequireCanceled(t, fmt.Sprintf("CoarseClusterCtx T=%d", workers), cres, err)
	}
	testkit.WaitGoroutines(t, base)
}

// TestCancelMidSimilarity cancels at the k-th scheduling point of the wedge
// kernel, for worker counts 1..8.
func TestCancelMidSimilarity(t *testing.T) {
	g := goldenGraph(t)
	base := runtime.NumGoroutine()
	for workers := 1; workers <= 8; workers++ {
		ctx := testkit.NewCountdownCtx(1)
		pl, err := SimilarityCtx(ctx, g, workers, nil)
		testkit.RequireCanceled(t, fmt.Sprintf("T=%d", workers), pl, err)
	}
	testkit.WaitGoroutines(t, base)
}

// TestCancelMidSort cancels inside the parallel pair-list sort and verifies
// the list is left flagged unsorted, so a later sweep re-sorts instead of
// consuming a half-merged permutation.
func TestCancelMidSort(t *testing.T) {
	g := goldenGraph(t)
	base := runtime.NumGoroutine()
	for workers := 2; workers <= 8; workers *= 2 {
		pl := core.Similarity(g)
		// k=1 survives SortFuncCtx's entry check and cancels at the first
		// merge-round boundary.
		err := pl.SortWorkersCtx(testkit.NewCountdownCtx(1), workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("T=%d: err = %v, want context.Canceled", workers, err)
		}
		if pl.Sorted() {
			t.Fatalf("T=%d: pair list flagged sorted after a canceled sort", workers)
		}
		// The canceled sort left a permutation; a fresh sweep must still
		// reproduce the serial merge stream exactly.
		res, err := SweepParallelCtx(context.Background(), g, pl, workers, nil)
		if err != nil {
			t.Fatalf("T=%d: sweep after canceled sort: %v", workers, err)
		}
		requireGolden(t, fmt.Sprintf("T=%d after canceled sort", workers), res)
	}
	testkit.WaitGoroutines(t, base)
}

// TestCancelMidSweepEngines cancels each sweep engine mid-merge (after the
// sort has consumed a handful of Err polls) at worker counts 1..8: the run
// must stop early — strictly fewer pairs processed than the full sweep — and
// return context.Canceled.
func TestCancelMidSweepEngines(t *testing.T) {
	g := goldenGraph(t)
	full, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	totalPairs := full.PairsProcessed
	base := runtime.NumGoroutine()
	for _, e := range ctxSweeps {
		for workers := 1; workers <= 8; workers++ {
			rec := NewRecorder()
			// Generous enough to get past the sort's polls, small enough to
			// land well inside the merge loop's window sequence.
			ctx := testkit.NewCountdownCtx(20)
			res, err := e.run(ctx, g, core.Similarity(g), workers, rec)
			testkit.RequireCanceled(t, fmt.Sprintf("%s T=%d", e.name, workers), res, err)
			if got := rec.Counter(core.CtrSweepPairsProcessed); got >= totalPairs {
				t.Fatalf("%s T=%d: processed %d pairs despite cancellation (full run: %d)",
					e.name, workers, got, totalPairs)
			}
		}
	}
	testkit.WaitGoroutines(t, base)
}

// TestCancelSpilledCleanup cancels the out-of-core sweep on both sides of
// its disk round trip — countdown contexts land inside the spill write, the
// armed CancelWindow point lands inside the sweep of the read-back list —
// and verifies every exit removes its spill file and brings every
// goroutine back.
func TestCancelSpilledCleanup(t *testing.T) {
	resetFaults(t)
	g := goldenGraph(t)
	base := runtime.NumGoroutine()
	dir := t.TempDir()

	// Write phase: the writer polls the countdown once per 2,048-pair block,
	// so small k values cancel before the read-back begins.
	for _, k := range []int64{1, 3, 10} {
		for _, workers := range []int{1, 4, 8} {
			res, err := sweepSpilled(testkit.NewCountdownCtx(k), g, core.Similarity(g), workers, dir, nil)
			testkit.RequireCanceled(t, fmt.Sprintf("write-phase k=%d T=%d", k, workers), res, err)
			testkit.RequireEmptyDir(t, dir)
		}
	}

	// Merge phase: the engine hits the CancelWindow point once per window,
	// so arming it with a cancel lands deterministically after the spill
	// file was written and read back.
	for _, workers := range []int{1, 4, 8} {
		resetFaults(t)
		ctx, cancel := context.WithCancel(context.Background())
		fault.Arm(fault.CancelWindow, 2, cancel)
		res, err := sweepSpilled(ctx, g, core.Similarity(g), workers, dir, nil)
		cancel()
		testkit.RequireCanceled(t, fmt.Sprintf("read-phase T=%d", workers), res, err)
		testkit.RequireEmptyDir(t, dir)
	}
	testkit.WaitGoroutines(t, base)
}

// TestCancelThenRerunIsClean: a canceled run leaves no state behind that
// changes a subsequent full run — same graph, same pair list, golden output.
func TestCancelThenRerunIsClean(t *testing.T) {
	g := goldenGraph(t)
	pl := core.Similarity(g)
	if _, err := SweepParallelCtx(testkit.NewCountdownCtx(10), g, pl, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup cancel failed: %v", err)
	}
	res, err := SweepParallelCtx(context.Background(), g, pl, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "rerun after cancellation", res)
}
