package core

import (
	"context"
	"fmt"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

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

// TestSweepParallelDifferential is the differential test of the parallel
// fine-grained sweep: on every graph family (random, planted communities,
// word association, structured, degenerate) and every worker count 1..8, the
// engine must reproduce the serial sweep exactly — bitwise-equal merge
// streams and identical final partitions.
func TestSweepParallelDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for workers := 1; workers <= 8; workers++ {
				par, err := SweepParallel(g, Similarity(g), workers)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("T=%d vs serial", workers), par, serial)
			}
		})
	}
}

// TestSweepParallelRandomLarge pushes past the shared families with graphs
// big enough to cut many windows and cross the engine's fan-out thresholds.
func TestSweepParallelRandomLarge(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.ErdosRenyi(300, 0.06, rng.New(seed))
		serial, err := Sweep(g, Similarity(g))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{1, 3, 8} {
			par, err := SweepParallel(g, Similarity(g), workers)
			if err != nil {
				t.Fatalf("seed %d T=%d: %v", seed, workers, err)
			}
			requireIdenticalSweep(t, fmt.Sprintf("seed %d T=%d", seed, workers), par, serial)
		}
	}
}

// TestSweepParallelWorkerExtremes pins worker-count normalization: negative,
// zero, and absurdly large requests all run and all reproduce the serial
// stream.
func TestSweepParallelWorkerExtremes(t *testing.T) {
	g := graph.ErdosRenyi(100, 0.1, rng.New(9))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-3, 0, 1, 1 << 20} {
		par, err := SweepParallel(g, Similarity(g), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
}

// TestSweepParallelErrorParity feeds both sweeps a pair list computed from a
// different graph than the one being swept. The serial sweep reports the
// first operation whose incident edge is missing; the engine resolves
// batches concurrently but must surface the identical error.
func TestSweepParallelErrorParity(t *testing.T) {
	g, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	foreign := graph.Complete(48)
	_, serialErr := Sweep(g, Similarity(foreign))
	if serialErr == nil {
		t.Fatal("serial sweep accepted a foreign pair list")
	}
	for workers := 1; workers <= 8; workers++ {
		_, parErr := SweepParallel(g, Similarity(foreign), workers)
		if parErr == nil {
			t.Fatalf("T=%d: parallel sweep accepted a foreign pair list", workers)
		}
		if parErr.Error() != serialErr.Error() {
			t.Fatalf("T=%d: error %q, want serial's %q", workers, parErr, serialErr)
		}
	}
}

// TestSweepParallelCounters checks the recorded instrumentation against the
// result: the op/merge counters must agree with the returned Result, and the
// engine's accounting identity must hold — every operation is retired exactly
// once, as either a merge event or a no-op drop.
func TestSweepParallelCounters(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.08, rng.New(4))
	rec := obs.New()
	res, err := SweepParallelCtx(context.Background(), g, Similarity(g), 4, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(CtrSweepPairsProcessed); got != res.PairsProcessed {
		t.Fatalf("pairs counter %d, want %d", got, res.PairsProcessed)
	}
	if got := rec.Counter(CtrSweepMerges); got != int64(len(res.Merges)) {
		t.Fatalf("merges counter %d, want %d", got, len(res.Merges))
	}
	if got := rec.Counter(CtrSweepChainRewrites); got != res.Chain.Changes() {
		t.Fatalf("rewrites counter %d, want %d", got, res.Chain.Changes())
	}
	if rec.Counter(CtrSweepWindows) < 1 {
		t.Fatal("no windows recorded")
	}
	retired := rec.Counter(CtrSweepMerges) + rec.Counter(CtrSweepNoopDrops)
	if retired != res.PairsProcessed {
		t.Fatalf("merges + drops = %d, want every op retired once (%d)", retired, res.PairsProcessed)
	}
}
