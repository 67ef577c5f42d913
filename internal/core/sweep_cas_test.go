package core

import (
	"context"
	"fmt"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// The tests in this file keep the names they had when the windowed engine
// scheduled each window's live ops through lock-free CAS rounds. That
// scheduler is gone (DESIGN "Removed variants and why"): every window's
// survivors are now drained serially in op order. The tests check what the
// drain rule promises in its place — the same merge stream as serial Sweep,
// the same engine counters at every worker count, and, on workloads big
// enough to fan out, the same again when resolution actually runs on
// several workers.

// engineInvariantCounters are the windowed engine's counters that are pure
// functions of the input, never of the worker count.
var engineInvariantCounters = []string{
	CtrSweepPairsProcessed,
	CtrSweepChainRewrites,
	CtrSweepMerges,
	CtrSweepWindows,
	CtrSweepNoopDrops,
	CtrSweepFlattens,
	CtrSweepTailOps,
}

func requireSameEngineCounters(t *testing.T, what string, got, want *obs.Recorder) {
	t.Helper()
	for _, c := range engineInvariantCounters {
		if g, w := got.Counter(c), want.Counter(c); g != w {
			t.Fatalf("%s: %s = %d, want %d", what, c, g, w)
		}
	}
}

// TestSweepCASDifferential runs every graph family at every worker count
// 1..8: the engine must reproduce the serial sweep bitwise, and every
// invariant engine counter must equal the single-worker run's, because
// window cuts, drops, flattens and chain writes depend on op counts only.
func TestSweepCASDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			var base *obs.Recorder
			for workers := 1; workers <= 8; workers++ {
				rec := obs.New()
				par, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, rec)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("T=%d vs serial", workers), par, serial)
				if base == nil {
					base = rec
					continue
				}
				requireSameEngineCounters(t, fmt.Sprintf("T=%d vs T=1", workers), rec, base)
			}
		})
	}
}

// TestSweepCASEngaged pins one workload big enough that resolution fans out:
// it cuts several windows, and its windowed ops exceed the fan-out floor.
// Multi-worker runs must match serial bitwise and the single-worker run's
// counters exactly.
func TestSweepCASEngaged(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.05, rng.New(1))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	base := obs.New()
	if _, err := SweepParallelCtx(context.Background(), g, Similarity(g), 1, base); err != nil {
		t.Fatal(err)
	}
	if w := base.Counter(CtrSweepWindows); w < 2 {
		t.Fatalf("%d windows; the workload must cut several", w)
	}
	windowed := base.Counter(CtrSweepPairsProcessed) - base.Counter(CtrSweepTailOps)
	if windowed < 2*sweepParMinOps {
		t.Fatalf("%d windowed ops; resolution never fans out below %d per window", windowed, sweepParMinOps)
	}
	for _, workers := range []int{2, 4, 8} {
		rec := obs.New()
		par, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("T=%d", workers), par, serial)
		requireSameEngineCounters(t, fmt.Sprintf("T=%d vs T=1", workers), rec, base)
	}
}

// TestSweepCASSpilled checks that the out-of-core sweep, which feeds the same
// window drain from disk, stays bitwise identical to serial at multi-worker
// counts and reports the in-memory engine's counters.
func TestSweepCASSpilled(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.05, rng.New(2))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.New()
	if _, err := SweepParallelCtx(context.Background(), g, Similarity(g), 1, mem); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rec := obs.New()
		sp, err := SweepSpilledOpts(context.Background(), g, Similarity(g), workers, SpillOptions{Dir: t.TempDir()}, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("spilled T=%d", workers), sp, serial)
		requireSameEngineCounters(t, fmt.Sprintf("spilled T=%d vs in-memory", workers), rec, mem)
	}
}
