package linkclust

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/fault"
	"linkclust/internal/persist"
	"linkclust/internal/spill"
	"linkclust/internal/testkit"
)

// Differential fault-injection harness. Each scenario arms exactly one
// registry point, runs the pipeline, and checks two things: the armed fault
// yields a clean, typed error (or, for benign faults, no deviation at all),
// and with every point disarmed the merge stream is bitwise identical to the
// golden hash. Armed state is process-global, so every test brackets itself
// with fault.Reset via t.Cleanup.

func resetFaults(t *testing.T) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
}

// TestFaultDisarmedMatchesGolden is the harness's control arm: no fault
// armed, every accepted engine name at several worker counts, golden output
// (the facade oracle's cells, oracle_test.go). Combined
// with the per-fault tests below it establishes that the injection points
// themselves (pure atomic loads when disarmed) do not perturb the schedule.
func TestFaultDisarmedMatchesGolden(t *testing.T) {
	resetFaults(t)
	if n := fault.Armed(); n != 0 {
		t.Fatalf("%d fault points armed at test entry, want 0", n)
	}
	runFacadeOracle(t, goldenFamily(t), cells([]int{1, 4, 8}, enginePaths()...))
}

// TestFaultWorkerPanic arms the worker-spawn point with a panicking action:
// every engine must surface a *WorkerPanicError carrying the injected value,
// never crash, and never leak the rest of its pool.
func TestFaultWorkerPanic(t *testing.T) {
	g := goldenGraph(t)
	pl := core.Similarity(g)
	pl.Sort()
	scenarios := []struct {
		name string
		hitN int64
		run  func() error
	}{
		{"similarity", 3, func() error {
			_, err := SimilarityCtx(context.Background(), g, 4, nil)
			return err
		}},
		{"sweep-parallel", 2, func() error {
			_, err := SweepParallelCtx(context.Background(), g, clonePairs(pl), 4, nil)
			return err
		}},
		{"coarse", 2, func() error {
			_, err := CoarseClusterCtx(context.Background(), g, DefaultCoarseParams(), ClusterOptions{Workers: 4})
			return err
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			resetFaults(t)
			base := runtime.NumGoroutine()
			fault.Arm(fault.WorkerPanic, sc.hitN, func() { panic("injected worker crash") })
			err := sc.run()
			var wpe *WorkerPanicError
			if !errors.As(err, &wpe) {
				t.Fatalf("err = %v, want *WorkerPanicError", err)
			}
			if v, ok := wpe.Value.(string); !ok || !strings.Contains(v, "injected worker crash") {
				t.Fatalf("panic value = %v, want the injected one", wpe.Value)
			}
			if len(wpe.Stack) == 0 {
				t.Fatal("WorkerPanicError carries no stack")
			}
			testkit.WaitGoroutines(t, base)
		})
	}
}

// clonePairs deep-copies a pair list so panic scenarios (which leave
// contents unspecified) never contaminate a shared fixture.
func clonePairs(pl *PairList) *PairList {
	return &PairList{Pairs: append([]Pair(nil), pl.Pairs...)}
}

// TestFaultSlowProducer arms the spilled sweep's read-back point, which
// fires once per block read from disk, with a stall at the second block:
// slow must not mean wrong — the merge stream stays golden because every
// scheduling decision is op-count-, not timing-, based.
func TestFaultSlowProducer(t *testing.T) {
	resetFaults(t)
	g := goldenGraph(t)
	stalled := false
	fault.Arm(fault.SlowProducer, 2, func() {
		stalled = true
		// Yield mid-read without slowing the suite: the output must not
		// notice.
		runtime.Gosched()
	})
	res, err := ClusterCtx(context.Background(), g, ClusterOptions{Workers: 4, Engine: EngineSpill, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !stalled {
		t.Fatal("slow-producer point never fired (no second read block?)")
	}
	requireGolden(t, "under a stalled producer", res)
}

// TestFaultCancelWindow arms the window-cut point with a context cancel at
// window K: every engine must return context.Canceled — the typed error, not
// a crash or a completed result — at worker counts 1..8.
func TestFaultCancelWindow(t *testing.T) {
	g := goldenGraph(t)
	engines := []struct {
		name string
		run  func(ctx context.Context, workers int) error
	}{
		{"serial", func(ctx context.Context, _ int) error {
			_, err := SweepCtx(ctx, g, core.Similarity(g), nil)
			return err
		}},
		{"parallel", func(ctx context.Context, workers int) error {
			_, err := SweepParallelCtx(ctx, g, core.Similarity(g), workers, nil)
			return err
		}},
		{"spill", func(ctx context.Context, workers int) error {
			_, err := ClusterCtx(ctx, g, ClusterOptions{Workers: workers, Engine: EngineSpill, SpillDir: t.TempDir()})
			return err
		}},
		{"coarse", func(ctx context.Context, workers int) error {
			params := DefaultCoarseParams()
			params.Workers = workers
			_, err := CoarseClusterCtx(ctx, g, params, ClusterOptions{})
			return err
		}},
	}
	base := runtime.NumGoroutine()
	for _, e := range engines {
		for workers := 1; workers <= 8; workers++ {
			resetFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			fault.Arm(fault.CancelWindow, 2, cancel)
			err := e.run(ctx, workers)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s T=%d: err = %v, want context.Canceled", e.name, workers, err)
			}
		}
	}
	testkit.WaitGoroutines(t, base)
}

// TestFaultMemBreach arms the budget point and walks the full escalation
// ladder. First rung: a breach alone makes ClusterCtx spill the pair list
// to disk and sweep out of core — the result stays bitwise golden and the
// spill counter records the reroute. Second rung: a breach whose spill
// write also fails degrades fine→coarse, recording both counters. A
// read-phase spill failure cannot degrade (the pair list is already gone)
// and surfaces its typed error instead.
func TestFaultMemBreach(t *testing.T) {
	resetFaults(t)
	g := goldenGraph(t)
	rec := NewRecorder()
	// A budget far above anything this run allocates: only the injected
	// breach can trigger the ladder, so the test is deterministic on any
	// host.
	fault.Arm(fault.MemBreach, 1, nil)
	res, err := ClusterCtx(context.Background(), g, ClusterOptions{
		Workers:        4,
		Recorder:       rec,
		MemBudgetBytes: 1 << 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(CtrMemBudgetSpills); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrMemBudgetSpills, got)
	}
	if got := rec.Counter(CtrMemBudgetDegrades); got != 0 {
		t.Fatalf("%s = %d after a successful spill, want 0", CtrMemBudgetDegrades, got)
	}
	requireGolden(t, "out-of-core reroute", res)
	if rec.Counter(CtrSpillBytesWritten) < 1 {
		t.Fatal("spilled run recorded no spill activity")
	}

	// Second rung: the spill's block write fails (deterministic ENOSPC), so
	// the run degrades to the coarse algorithm.
	fault.Reset()
	fault.Arm(fault.MemBreach, 1, nil)
	fault.Arm(fault.SpillWrite, 1, nil)
	recD := NewRecorder()
	resD, err := ClusterCtx(context.Background(), g, ClusterOptions{
		Workers:        4,
		Recorder:       recD,
		MemBudgetBytes: 1 << 50,
	})
	fault.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if got := recD.Counter(CtrMemBudgetSpills); got != 1 {
		t.Fatalf("%s = %d on the degrade rung, want 1 (the spill was attempted)", CtrMemBudgetSpills, got)
	}
	if got := recD.Counter(CtrMemBudgetDegrades); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrMemBudgetDegrades, got)
	}
	if len(resD.Merges) == 0 || resD.NumClusters() <= 0 {
		t.Fatalf("degraded run produced no clustering: %d merges", len(resD.Merges))
	}
	// The coarse path must actually differ from the fine-grained sweep's
	// level structure (one level per chunk, not per threshold) — proof the
	// degrade really rerouted rather than relabeled.
	fine, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if resD.Levels >= fine.Levels {
		t.Fatalf("degraded run has %d levels, fine-grained %d — expected coarser", resD.Levels, fine.Levels)
	}

	// Read-phase failure: the pair list was released to disk, so there is
	// nothing left to degrade onto — the typed error surfaces.
	fault.Arm(fault.MemBreach, 1, nil)
	fault.Arm(fault.SpillRead, 1, nil)
	_, err = ClusterCtx(context.Background(), g, ClusterOptions{
		Workers:        4,
		MemBudgetBytes: 1 << 50,
	})
	fault.Reset()
	if !errors.Is(err, spill.ErrChecksum) {
		t.Fatalf("read-phase failure err = %v, want spill.ErrChecksum", err)
	}

	// Without the injected breach the same options take the fine-grained
	// path and stay golden.
	rec2 := NewRecorder()
	res2, err := ClusterCtx(context.Background(), g, ClusterOptions{
		Workers:        4,
		Recorder:       rec2,
		MemBudgetBytes: 1 << 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Counter(CtrMemBudgetDegrades) + rec2.Counter(CtrMemBudgetSpills); got != 0 {
		t.Fatalf("ladder counters = %d without a breach, want 0", got)
	}
	requireGolden(t, "with an unbreached budget", res2)
}

// streamArrivals converts a graph's edges, in id order, into stream
// arrivals — the replay that makes a stream engine's accumulated graph
// bitwise identical to the original (the dynamic graph assigns the same
// edge ids the Builder did).
func streamArrivals(g *Graph) []Arrival {
	edges := g.Edges()
	arr := make([]Arrival, 0, len(edges))
	for _, e := range edges {
		arr = append(arr, Arrival{U: int(e.U), V: int(e.V), W: e.Weight})
	}
	return arr
}

// TestFaultMatrix is the CI smoke: every registered point armed once with a
// benign action against the path that passes it — the run must complete
// golden (a benign action changes nothing) and the hit counter must show the
// point actually fired. The spill points are the exception: for them the
// firing IS the fault (an injected write failure / checksum mismatch), so
// the armed run must fail with the typed error and the disarmed rerun must
// be golden.
func TestFaultMatrix(t *testing.T) {
	g := goldenGraph(t)
	// MemBreach fires only when a budget is set; CancelWindow/WorkerPanic
	// fire on the windowed parallel path and SlowProducer on the spilled
	// sweep's read-back; the stream points
	// fire on the incremental path (a whole-graph ingest hits the ingest
	// point at the batch head, and the first snapshot hits the snapshot
	// point at its sweep entry); the spill points fire on the out-of-core
	// sweep.
	for _, p := range fault.Points() {
		t.Run(p.String(), func(t *testing.T) {
			resetFaults(t)
			fired := false
			fault.Arm(p, 1, func() { fired = true })
			var res *Result
			var err error
			switch p {
			case fault.JournalAppend, fault.CacheStoreWrite, fault.CacheStoreLoad:
				// The persistence points live in the daemon's state layer, not
				// the clustering pipelines — drive the persist primitives
				// directly. Like the spill points, firing IS the fault (a typed
				// write failure, or a read treated as corrupt), and the
				// disarmed rerun must round-trip cleanly.
				testPersistFaultPoint(t, p, &fired)
				return
			case fault.SpillWrite, fault.SpillRead:
				want := spill.ErrWriteFault
				if p == fault.SpillRead {
					want = spill.ErrChecksum
				}
				spilled := ClusterOptions{Workers: 4, Engine: EngineSpill, SpillDir: t.TempDir()}
				if _, err = ClusterCtx(context.Background(), g, spilled); !errors.Is(err, want) {
					t.Fatalf("armed %s: err = %v, want %v", p, err, want)
				}
				if !fired {
					t.Fatalf("point %s never fired on the out-of-core sweep", p)
				}
				fault.Reset()
				res, err = ClusterCtx(context.Background(), g, spilled)
				if err != nil {
					t.Fatalf("disarmed rerun: %v", err)
				}
				requireGolden(t, "disarmed", res)
				return
			case fault.StreamIngest, fault.StreamSnapshot:
				var eng *Stream
				eng, err = NewStream(StreamOptions{Workers: 4, MaxVertices: g.NumVertices()})
				if err != nil {
					t.Fatal(err)
				}
				if err = eng.IngestBatch(streamArrivals(g)); err != nil {
					t.Fatal(err)
				}
				res, err = eng.Snapshot()
			default:
				opts := ClusterOptions{Workers: 4, Engine: EngineParallel}
				switch p {
				case fault.MemBreach:
					opts.MemBudgetBytes = 1 << 50
				case fault.SlowProducer:
					opts.Engine, opts.SpillDir = EngineSpill, t.TempDir()
				}
				res, err = ClusterCtx(context.Background(), g, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatalf("point %s never fired on its pipeline", p)
			}
			if p != fault.MemBreach { // the benign scenarios stay golden
				requireGolden(t, fmt.Sprintf("with benign %s armed", p), res)
			}
		})
	}
}

// testPersistFaultPoint runs the armed-then-disarmed contract for one of the
// state-layer points against a scratch state directory: the armed operation
// fails with the typed error (ErrWriteFault on the write points, ErrCorrupt
// on the load point) without corrupting what is already on disk, and after
// fault.Reset the same operation succeeds and round-trips.
func testPersistFaultPoint(t *testing.T, p fault.Point, fired *bool) {
	t.Helper()
	dir, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	payload := []byte("fault-matrix payload")

	switch p {
	case fault.JournalAppend:
		rec := persist.Record{Op: persist.OpSubmit, ID: "j1", AtUnixMS: 1}
		j, _, _, err := dir.OpenJournal()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec); !errors.Is(err, persist.ErrWriteFault) {
			t.Fatalf("armed append err = %v, want ErrWriteFault", err)
		}
		j.Close()
		if !*fired {
			t.Fatal("journal-append point never fired")
		}
		fault.Reset()
		j2, recs, _, err := dir.OpenJournal()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("faulted append left %d records behind", len(recs))
		}
		if err := j2.Append(rec); err != nil {
			t.Fatalf("disarmed append: %v", err)
		}
		j2.Close()
		j3, recs, _, err := dir.OpenJournal()
		if err != nil {
			t.Fatal(err)
		}
		defer j3.Close()
		if len(recs) != 1 || recs[0].ID != "j1" {
			t.Fatalf("disarmed append replays %+v, want the one record", recs)
		}
	case fault.CacheStoreWrite:
		if err := dir.WriteEntry(persist.EntryPairs, "m", payload); !errors.Is(err, persist.ErrWriteFault) {
			t.Fatalf("armed write err = %v, want ErrWriteFault", err)
		}
		if !*fired {
			t.Fatal("cache-store-write point never fired")
		}
		fault.Reset()
		if err := dir.WriteEntry(persist.EntryPairs, "m", payload); err != nil {
			t.Fatalf("disarmed write: %v", err)
		}
		got, err := dir.ReadEntry(persist.EntryPairs, "m")
		if err != nil || string(got) != string(payload) {
			t.Fatalf("round-trip = %q, %v", got, err)
		}
	case fault.CacheStoreLoad:
		if err := dir.WriteEntry(persist.EntryPairs, "m", payload); err != nil {
			t.Fatal(err)
		}
		if _, err := dir.ReadEntry(persist.EntryPairs, "m"); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("armed read err = %v, want ErrCorrupt", err)
		}
		if !*fired {
			t.Fatal("cache-store-load point never fired")
		}
		fault.Reset()
		got, err := dir.ReadEntry(persist.EntryPairs, "m")
		if err != nil || string(got) != string(payload) {
			t.Fatalf("disarmed read = %q, %v (the armed read must not have damaged the entry)", got, err)
		}
	}
}

// TestFaultStreamCancel arms the stream points with a context cancel. The
// ingest point fires before any mutation, so a cancelled ingest must leave
// the graph untouched; the snapshot point fires after the refresh but
// before the sweep, so a cancelled snapshot must leave the engine
// retryable. Either way, disarming and retrying produces the golden
// clustering, and no goroutine outlives the cancelled call.
func TestFaultStreamCancel(t *testing.T) {
	g := goldenGraph(t)
	arr := streamArrivals(g)

	t.Run("ingest", func(t *testing.T) {
		resetFaults(t)
		base := runtime.NumGoroutine()
		eng, err := NewStream(StreamOptions{Workers: 4, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fault.Arm(fault.StreamIngest, 1, cancel)
		if err := eng.IngestBatchCtx(ctx, arr); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := eng.Graph().NumEdges(); got != 0 {
			t.Fatalf("cancelled ingest applied %d edges, want 0", got)
		}
		fault.Reset()
		if err := eng.IngestBatch(arr); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requireGolden(t, "after retried ingest", res)
		testkit.WaitGoroutines(t, base)
	})

	t.Run("snapshot", func(t *testing.T) {
		resetFaults(t)
		base := runtime.NumGoroutine()
		eng, err := NewStream(StreamOptions{
			Workers:     4,
			MaxVertices: g.NumVertices(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(arr); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fault.Arm(fault.StreamSnapshot, 1, cancel)
		if _, err := eng.SnapshotCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		fault.Reset()
		res, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requireGolden(t, "after retried snapshot", res)
		testkit.WaitGoroutines(t, base)
	})
}
