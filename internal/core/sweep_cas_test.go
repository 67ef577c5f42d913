package core

import "testing"

// The tests in this file keep the names they had when the windowed engine
// scheduled each window's live ops through lock-free CAS rounds. That
// scheduler is gone (DESIGN "Removed variants and why"): every window's
// survivors are now drained serially in op order. The tests check what the
// drain rule promises in its place — the same merge stream as serial Sweep,
// the same engine counters at every worker count, and, on workloads big
// enough to fan out, the same again when resolution actually runs on
// several workers. Each is a selection of the oracle's cells
// (oracle_test.go), whose cell check includes the counters.

// TestSweepCASDifferential runs every shared family at every worker count
// 1..8 through the lazy frontier feed, SweepParallelCtx's closure rule: once
// the engine closes, the drain reads buckets no one sorted. Window cuts,
// drops, flattens and chain writes depend on op counts only, so every
// invariant counter must equal the in-memory single-worker run's.
// (TestSweepParallelDifferential runs the same families in memory.)
func TestSweepCASDifferential(t *testing.T) {
	runOracle(t, wedgeFamilies(t), workersUpTo(8), pathFrontierLazy)
}

// TestSweepCASEngaged pins one workload big enough that resolution fans out:
// it cuts several windows, and its windowed ops exceed the fan-out floor.
func TestSweepCASEngaged(t *testing.T) {
	fams := erFamilies(400, 0.05, 1)
	base := oracleReference(t, fams[0]).base
	if w := base.Counter(CtrSweepWindows); w < 2 {
		t.Fatalf("%d windows; the workload must cut several", w)
	}
	windowed := base.Counter(CtrSweepPairsProcessed) - base.Counter(CtrSweepTailOps)
	if windowed < 2*sweepParMinOps {
		t.Fatalf("%d windowed ops; resolution never fans out below %d per window", windowed, sweepParMinOps)
	}
	runOracle(t, fams, []int{2, 4, 8}, pathInMemory)
}

// TestSweepCASSpilled checks that the out-of-core sweep, which feeds the same
// window drain from disk, stays bitwise identical to serial at multi-worker
// counts and reports the in-memory engine's counters.
func TestSweepCASSpilled(t *testing.T) {
	runOracle(t, erFamilies(400, 0.05, 2), []int{2, 8}, pathSpilled)
}
