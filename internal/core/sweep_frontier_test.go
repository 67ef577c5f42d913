package core

import "testing"

// The differentials of the engine's pipelined (frontier-fed) consumption,
// the contract SweepParallelCtx relies on, as selections of the oracle's
// frontier cells (oracle_test.go).

// TestSweepPipelinedDifferential: on every graph family and every worker
// count 1..8, feeding the list bucket by bucket, each sorted only when it is
// reached, must reproduce the serial sweep exactly, and the engine's buffer
// must end in list-L order.
func TestSweepPipelinedDifferential(t *testing.T) {
	runOracle(t, wedgeFamilies(t), workersUpTo(8), pathFrontier)
}

// TestSweepPipelinedLargeRandom pushes past the shared families with graphs
// big enough to cut many windows, span many similarity buckets, and cross
// the engine's fan-out thresholds.
func TestSweepPipelinedLargeRandom(t *testing.T) {
	runOracle(t, erFamilies(300, 0.06, 0, 1, 2), []int{1, 3, 8}, pathFrontier)
}

// TestSweepPipelinedPresorted advances the frontier one pair at a time over
// a pre-sorted list: window cuts depend only on op counts, so the finest
// feed must still reproduce the serial sweep.
func TestSweepPipelinedPresorted(t *testing.T) {
	runOracle(t, erFamilies(120, 0.1, 7), []int{1, 4}, pathPresorted)
}

// TestSweepPipelinedErrorParity feeds a pair list from a foreign graph
// through the frontier: the engine must surface exactly the serial sweep's
// error (first failing operation in serial order) at every worker count,
// even though later buckets have not been fed when it fails.
func TestSweepPipelinedErrorParity(t *testing.T) {
	runOracle(t, foreignFamilies(t), workersUpTo(8), pathFrontier)
}
