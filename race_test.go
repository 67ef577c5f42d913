package linkclust

// Race-exercise tests: many workers on small graphs, repeated, so that
// `go test -race ./...` sweeps the parallel similarity fan-out, the coarse
// sweep's replica merging, and a Recorder shared across concurrent
// pipelines. Worker counts deliberately exceed the host's core count —
// par.Normalize keeps them schedulable while preserving the goroutine
// interleavings the race detector needs.

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"testing"

	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

func raceGraph(seed uint64) *graph.Graph {
	return graph.ErdosRenyi(80, 0.2, rng.New(seed))
}

func TestRaceSimilarityParallel(t *testing.T) {
	// SimilarityParallel is the wedge-major kernel: its parallel output is
	// bitwise identical to serial, so the comparison here is exact.
	g := raceGraph(1)
	serial := core.Similarity(g)
	serial.Sort()
	for rep := 0; rep < 4; rep++ {
		for _, workers := range []int{2, 4, 8} {
			pl := core.SimilarityParallel(g, workers)
			pl.Sort()
			if !slices.Equal(pl.Pairs, serial.Pairs) {
				t.Fatalf("workers=%d: sorted pair list differs from serial", workers)
			}
		}
	}
}

// TestRaceSimilarityWedgeKernel hammers the wedge-major kernel's two
// atomic-cursor passes: several concurrent parallel runs over one shared
// graph, each compared exactly against the serial wedge kernel. The count
// and fill passes share per-worker scratch and write disjoint CSR slots —
// any overlap is a race the detector will flag.
func TestRaceSimilarityWedgeKernel(t *testing.T) {
	g := raceGraph(4)
	serial := core.Similarity(g)
	var wg sync.WaitGroup
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				if pl := core.SimilarityParallel(g, workers); !slices.Equal(pl.Pairs, serial.Pairs) {
					t.Errorf("workers=%d: pair list differs from serial", workers)
				}
			}(workers)
		}
	}
	wg.Wait()
}

func TestRaceCoarseSweepReplicaMerge(t *testing.T) {
	g := raceGraph(2)
	pl := core.Similarity(g)
	// Delta0 well above parallelMerge's serial-fallback threshold so the
	// replica clone/fold path actually runs.
	params := coarse.Params{Gamma: 2, Phi: 4, Delta0: 256, Eta0: 4, Workers: 1}
	serial, err := coarse.Sweep(g, pl, params)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{2, 4, 8} {
			params.Workers = workers
			rec := obs.New()
			res, err := coarse.SweepCtx(context.Background(), g, pl, params, rec)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if res.FinalClusters != serial.FinalClusters || res.Levels != serial.Levels {
				t.Fatalf("workers=%d: %d clusters / %d levels, want %d / %d",
					workers, res.FinalClusters, res.Levels, serial.FinalClusters, serial.Levels)
			}
			if res.OpsProcessed != serial.OpsProcessed {
				t.Fatalf("workers=%d: ops %d vs %d", workers, res.OpsProcessed, serial.OpsProcessed)
			}
			if rec.Counter(coarse.CtrReplicaClones) == 0 {
				t.Fatalf("workers=%d: replica path never engaged (Delta0 too small for this workload?)", workers)
			}
		}
	}
}

// TestRaceSweepParallel runs concurrent parallel fine-grained sweeps — each
// on its own PairList, all recording into one shared Recorder — and checks
// every merge stream bitwise against the serial sweep. This runs the
// engine's resolution fan-out and its serial drain under the race detector
// while the Recorder takes counter and phase writes from all
// pipelines at once.
func TestRaceSweepParallel(t *testing.T) {
	g := raceGraph(5)
	serial, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	want := sha(canonMerges(serial))
	rec := obs.New()
	var wg sync.WaitGroup
	runs := 0
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{2, 4, 8} {
			runs++
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				res, err := core.SweepParallelCtx(context.Background(), g, core.Similarity(g), workers, rec)
				if err != nil {
					t.Errorf("workers=%d: %v", workers, err)
					return
				}
				if got := sha(canonMerges(res)); got != want {
					t.Errorf("workers=%d: hash %s, serial %s", workers, got, want)
				}
			}(workers)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := rec.Counter(core.CtrSweepMerges), int64(runs)*int64(len(serial.Merges)); got != want {
		t.Fatalf("shared counter %s = %d, want %d", core.CtrSweepMerges, got, want)
	}
}

// TestSweepSortsPairListInPlace documents a sharing hazard: both sweeps sort
// the PairList in place as their first act, so callers running concurrent
// sweeps must hand each its own copy (as the tests above do via separate
// Similarity calls) — sharing one list across goroutines is a data race even
// though the sweeps never write the pairs themselves afterwards.
func TestSweepSortsPairListInPlace(t *testing.T) {
	g := raceGraph(6)
	descending := func(ps []core.Pair) bool {
		return slices.IsSortedFunc(ps, func(a, b core.Pair) int { return cmp.Compare(b.Sim, a.Sim) })
	}
	pl := core.Similarity(g)
	if descending(pl.Pairs) {
		t.Fatal("similarity output arrived pre-sorted; pick a graph that actually exercises the in-place sort")
	}
	if _, err := core.Sweep(g, pl); err != nil {
		t.Fatal(err)
	}
	if !descending(pl.Pairs) {
		t.Fatal("caller's list not sorted in place")
	}
	pl2 := core.Similarity(g)
	if _, err := core.SweepParallel(g, pl2, 4); err != nil {
		t.Fatal(err)
	}
	if !descending(pl2.Pairs) {
		t.Fatal("caller's list not sorted in place by parallel sweep")
	}
}

// TestRaceClusterCtxSharedGraph is the service-layer scenario under the race
// detector: many concurrent ClusterCtx jobs over ONE shared immutable Graph,
// with mixed engines (serial, windowed-parallel, spill) and mixed worker
// counts — exactly how the linkclustd worker pool runs jobs against interned
// graphs. Every concurrent result must be bitwise identical to the solo
// serial run; any engine write to shared graph state would surface both as a
// race report and as a diverging merge stream.
func TestRaceClusterCtxSharedGraph(t *testing.T) {
	g := raceGraph(7)
	solo, err := ClusterCtx(context.Background(), g, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		workers int
		engine  string
	}
	variants := []variant{
		{1, ""}, {2, ""}, {4, ""}, {8, ""},
		{2, EngineSpill}, {4, EngineSpill}, {8, EngineSpill},
	}
	spillDir := t.TempDir()
	var wg sync.WaitGroup
	for rep := 0; rep < 3; rep++ {
		for _, v := range variants {
			wg.Add(1)
			go func(v variant) {
				defer wg.Done()
				res, err := ClusterCtx(context.Background(), g, ClusterOptions{
					Workers:  v.workers,
					Engine:   v.engine,
					SpillDir: spillDir,
				})
				if err != nil {
					t.Errorf("workers=%d engine=%q: %v", v.workers, v.engine, err)
					return
				}
				if !slices.Equal(res.Merges, solo.Merges) {
					t.Errorf("workers=%d engine=%q: merge stream differs from the solo run's", v.workers, v.engine)
				}
			}(v)
		}
	}
	wg.Wait()
}

// TestRaceSharedRecorder runs several instrumented pipelines concurrently
// against one Recorder: counter writes from all goroutines must be
// race-free and sum exactly, and interleaved Phase/end pairs from different
// goroutines must be tolerated without panics.
func TestRaceSharedRecorder(t *testing.T) {
	const pipelines = 4
	g := raceGraph(3)
	serial := core.Similarity(g)

	rec := obs.New()
	var wg sync.WaitGroup
	errs := make(chan error, pipelines)
	for p := 0; p < pipelines; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, err := core.SimilarityCtx(context.Background(), g, 4, rec)
			if err != nil {
				errs <- err
				return
			}
			if _, err := core.SweepCtx(context.Background(), g, pl, rec); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := rec.Counter(core.CtrSimilarityPairs), int64(pipelines)*int64(len(serial.Pairs)); got != want {
		t.Fatalf("shared counter %s = %d, want %d", core.CtrSimilarityPairs, got, want)
	}
	rep := rec.Report()
	if rep == nil || len(rep.Phases) == 0 {
		t.Fatal("shared recorder produced an empty report")
	}
}
