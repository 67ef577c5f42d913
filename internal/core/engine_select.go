package core

import "linkclust/internal/par"

// Sweep engine identifiers, as accepted by the facade's
// ClusterOptions.Engine, the linkclust -engine flag, and the daemon's
// options payload. Every engine produces a bitwise-identical merge stream —
// the choice trades scheduling overhead against parallel speedup only.
const (
	// SweepEngineAuto selects by measured op-count thresholds; see
	// ChooseSweepEngine.
	SweepEngineAuto = "auto"
	// SweepEngineSerial is the paper's serial Algorithm 2.
	SweepEngineSerial = "serial"
	// SweepEngineParallel is the windowed reservation engine
	// (SweepParallel).
	SweepEngineParallel = "parallel"
	// SweepEngineSpill is the out-of-core sweep (SweepSpilledOpts):
	// similarity buckets spill to disk and stream back into the windowed
	// engine, so the pair list never has to be memory-resident. Never
	// chosen by auto selection — the facade reaches it through the explicit
	// engine option or the memory-budget admission path.
	SweepEngineSpill = "spill"
)

// SweepAutoMinOps is the incident-operation count (K2 — the sum of
// |Common| over the pair list, i.e. exactly the sweep's op count) below
// which auto selection runs the serial sweep: under it the parallel
// engines' fixed costs (packed-adjacency build, window bookkeeping, and
// pool barriers) exceed what parallelism recovers, producing the sub-1× rows
// the sweepkernel bench curves show at small α.
//
// Measured on the reference word-association workloads (vocab 4000, docs
// 6000) with 8 workers oversubscribed onto one physical core — the most
// adverse setting for the parallel engines, so on real multi-core hardware
// the threshold errs toward serial, never toward a losing parallel run:
//
//	K2      speedup T=2  speedup T=8
//	 30,940    0.32×        0.26×
//	 80,450    0.85×        0.80×
//	186,062    1.21×        1.23×
//	356,819    1.40×        1.39×
//
// The crossover sits between 80k and 186k ops; 2^17 = 131,072 splits the
// gap. See DESIGN.md ("Adaptive engine selection") for the full table and
// methodology; regenerate with `lcbench -experiment sweepkernel`. A var,
// not a const, so tests can force either side of the threshold.
var SweepAutoMinOps = int64(1 << 17)

// ChooseSweepEngine resolves the auto engine policy: serial below the
// measured op-count threshold (or when workers normalize to 1 — parallel
// scheduling can only lose there), otherwise the windowed parallel engine.
// The decision depends only on (ops, normalized workers), never on timing,
// so a given workload selects the same engine on every run — and because
// every engine is bitwise-identical, even a different choice could not
// change the output, only the speed.
//
// The third argument is ignored. It once selected the sort-overlapped
// pipelined sweep, which was removed; it stays only so existing callers
// keep compiling, and the next caller-side change can drop it.
func ChooseSweepEngine(ops int64, workers int, _ bool) string {
	if par.Normalize(workers) < 2 || ops < SweepAutoMinOps {
		return SweepEngineSerial
	}
	return SweepEngineParallel
}
