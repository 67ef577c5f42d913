package linkclust

import "testing"

// Root-level differentials of the out-of-core sweep, as selections of the
// facade oracle's cells (oracle_test.go).

// TestSpilledDifferentialMatrix: on every family (both radix-bucket widths,
// planted communities, the golden word graph) and T ∈ {1,4,8}, the spilled
// sweep must reproduce the serial sweep bit for bit and agree with the
// windowed parallel engine, including how far each sorted the list, while
// its bytes counter stays worker-invariant.
func TestSpilledDifferentialMatrix(t *testing.T) {
	runFacadeOracle(t, facadeFamilies(t), cells([]int{1, 4, 8}, pathSweepInMemory, pathSweepSpilled))
}

// TestSpilledBudgetReroute drives the facade ladder with a real 1-byte
// budget: the run must reroute through the spilled sweep, stay bitwise
// golden at every worker count, and leave the caller's spill directory
// empty.
func TestSpilledBudgetReroute(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t), cells([]int{1, 4, 8}, pathBudgetReroute))
}
