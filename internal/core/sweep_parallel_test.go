package core

import "testing"

// The windowed engine's differential tests, as selections of the oracle's
// in-memory cells (oracle_test.go).

// TestSweepParallelDifferential: on every shared graph family (random,
// planted communities, word association, structured, degenerate) and every
// worker count 1..8, the engine must reproduce the serial sweep exactly.
func TestSweepParallelDifferential(t *testing.T) {
	runOracle(t, wedgeFamilies(t), workersUpTo(8), pathInMemory)
}

// TestSweepParallelRandomLarge pushes past the shared families with graphs
// big enough to cut many windows and cross the engine's fan-out thresholds.
func TestSweepParallelRandomLarge(t *testing.T) {
	runOracle(t, erFamilies(300, 0.06, 0, 1, 2, 3), []int{1, 3, 8}, pathInMemory)
}

// TestSweepParallelWorkerExtremes pins worker-count normalization: negative,
// zero, and absurdly large requests all run and all reproduce the serial
// stream.
func TestSweepParallelWorkerExtremes(t *testing.T) {
	runOracle(t, erFamilies(100, 0.1, 9), []int{-3, 0, 1, 1 << 20}, pathInMemory)
}

// TestSweepParallelErrorParity: on a pair list from a different graph than
// the one being swept, the serial sweep reports the first operation whose
// incident edge is missing; the engine resolves batches concurrently but
// must surface the identical error.
func TestSweepParallelErrorParity(t *testing.T) {
	runOracle(t, foreignFamilies(t), workersUpTo(8), pathInMemory)
}

// TestSweepParallelCounters checks the recorded instrumentation against the
// result: the op, merge and rewrite counters agree with the returned Result,
// at least one window is recorded, and every operation is retired exactly
// once, as either a merge event or a no-op drop.
func TestSweepParallelCounters(t *testing.T) {
	runOracle(t, erFamilies(200, 0.08, 4), []int{4}, pathInMemory)
}
