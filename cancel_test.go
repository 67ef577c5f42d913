package linkclust

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"linkclust/internal/core"
	"linkclust/internal/fault"
)

// countdownCtx is a deterministic cancellation source: its Err is nil for the
// first k calls and context.Canceled from call k+1 on (Done closes at the
// same moment). Because the engines poll Err at their scheduling points —
// window cuts, row-block claims, merge rounds, bucket boundaries — a
// countdown pins cancellation to the k-th such point without any reliance on
// timing, which is what makes these tests exact under -race.
type countdownCtx struct {
	remaining atomic.Int64
	done      chan struct{}
	once      sync.Once
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{done: make(chan struct{})}
	c.remaining.Store(k)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// waitGoroutinesBack polls until the goroutine count returns to base: every
// cancelled engine promises that no worker, producer, or watcher goroutine
// outlives the call.
func waitGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d running, baseline %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// sweepSpilled runs the out-of-core engine over pl through the facade's
// engine dispatch.
func sweepSpilled(ctx context.Context, g *Graph, pl *PairList, workers int, dir string, rec *Recorder) (*Result, error) {
	res, _, err := RunSweep(ctx, g, pl, ClusterOptions{Workers: workers, Recorder: rec, Engine: EngineSpill, SpillDir: dir}, false)
	return res, err
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
		if _, err := SimilarityCtx(ctx, g, workers, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("SimilarityCtx T=%d: err = %v, want context.Canceled", workers, err)
		}
		engines := []struct {
			name string
			run  func(pl *PairList) (*Result, error)
		}{
			{"SweepCtx", func(pl *PairList) (*Result, error) { return SweepCtx(ctx, g, pl, nil) }},
			{"SweepParallelCtx", func(pl *PairList) (*Result, error) { return SweepParallelCtx(ctx, g, pl, workers, nil) }},
			{"spill", func(pl *PairList) (*Result, error) { return sweepSpilled(ctx, g, pl, workers, "", nil) }},
		}
		for _, e := range engines {
			res, err := e.run(core.Similarity(g))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s T=%d: err = %v, want context.Canceled", e.name, workers, err)
			}
			if res != nil {
				t.Fatalf("%s T=%d: returned a result alongside the error", e.name, workers)
			}
		}
		if _, err := ClusterCtx(ctx, g, ClusterOptions{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("ClusterCtx T=%d: err = %v, want context.Canceled", workers, err)
		}
		if _, err := CoarseClusterCtx(ctx, g, DefaultCoarseParams(), ClusterOptions{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("CoarseClusterCtx T=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	waitGoroutinesBack(t, base)
}

// TestCancelMidSimilarity cancels at the k-th scheduling point of the wedge
// kernel, for worker counts 1..8.
func TestCancelMidSimilarity(t *testing.T) {
	g := goldenGraph(t)
	base := runtime.NumGoroutine()
	for workers := 1; workers <= 8; workers++ {
		ctx := newCountdownCtx(1)
		pl, err := SimilarityCtx(ctx, g, workers, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("T=%d: err = %v, want context.Canceled", workers, err)
		}
		if pl != nil {
			t.Fatalf("T=%d: returned a pair list alongside the error", workers)
		}
	}
	waitGoroutinesBack(t, base)
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
		err := pl.SortWorkersCtx(newCountdownCtx(1), workers)
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
		if got := sha(canonMerges(res)); got != goldenClusterSHA {
			t.Fatalf("T=%d: hash %s after canceled sort, golden %s", workers, got, goldenClusterSHA)
		}
	}
	waitGoroutinesBack(t, base)
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
	type engine struct {
		name string
		run  func(ctx context.Context, pl *PairList, workers int, rec *Recorder) (*Result, error)
	}
	engines := []engine{
		{"SweepCtx", func(ctx context.Context, pl *PairList, _ int, rec *Recorder) (*Result, error) {
			return SweepCtx(ctx, g, pl, rec)
		}},
		{"SweepParallelCtx", func(ctx context.Context, pl *PairList, workers int, rec *Recorder) (*Result, error) {
			return SweepParallelCtx(ctx, g, pl, workers, rec)
		}},
		{"spill", func(ctx context.Context, pl *PairList, workers int, rec *Recorder) (*Result, error) {
			return sweepSpilled(ctx, g, pl, workers, "", rec)
		}},
	}
	for _, e := range engines {
		for workers := 1; workers <= 8; workers++ {
			rec := NewRecorder()
			// Generous enough to get past the sort's polls, small enough to
			// land well inside the merge loop's window sequence.
			ctx := newCountdownCtx(20)
			res, err := e.run(ctx, core.Similarity(g), workers, rec)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s T=%d: err = %v, want context.Canceled", e.name, workers, err)
			}
			if res != nil {
				t.Fatalf("%s T=%d: returned a result alongside the error", e.name, workers)
			}
			if got := rec.Counter(core.CtrSweepPairsProcessed); got >= totalPairs {
				t.Fatalf("%s T=%d: processed %d pairs despite cancellation (full run: %d)",
					e.name, workers, got, totalPairs)
			}
		}
	}
	waitGoroutinesBack(t, base)
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

	requireClean := func(label string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: reading spill parent: %v", label, err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: %d entries left in the spill parent, first %q",
				label, len(entries), entries[0].Name())
		}
	}

	// Write phase: the writer polls the countdown once per 2,048-pair block,
	// so small k values cancel before the read-back begins.
	for _, k := range []int64{1, 3, 10} {
		for _, workers := range []int{1, 4, 8} {
			res, err := sweepSpilled(newCountdownCtx(k), g, core.Similarity(g), workers, dir, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("write-phase k=%d T=%d: err = %v, want context.Canceled", k, workers, err)
			}
			if res != nil {
				t.Fatalf("write-phase k=%d T=%d: returned a result alongside the error", k, workers)
			}
			requireClean("write phase")
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
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("read-phase T=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("read-phase T=%d: returned a result alongside the error", workers)
		}
		requireClean("read phase")
	}
	waitGoroutinesBack(t, base)
}

// TestCancelThenRerunIsClean: a canceled run leaves no state behind that
// changes a subsequent full run — same graph, same pair list, golden output.
func TestCancelThenRerunIsClean(t *testing.T) {
	g := goldenGraph(t)
	pl := core.Similarity(g)
	if _, err := SweepParallelCtx(newCountdownCtx(10), g, pl, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup cancel failed: %v", err)
	}
	res, err := SweepParallelCtx(context.Background(), g, pl, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(canonMerges(res)); got != goldenClusterSHA {
		t.Fatalf("rerun after cancellation: hash %s, golden %s", got, goldenClusterSHA)
	}
}
