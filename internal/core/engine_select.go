package core

// Sweep engine identifiers, as accepted by the facade's
// ClusterOptions.Engine, the linkclust -engine flag, and the daemon's
// options payload. There are two sweeps behind them: the in-memory windowed
// engine (SweepParallel) and the out-of-core sweep. Both produce serial
// Algorithm 2's merge stream bit for bit.
const (
	// SweepEngineAuto is a retired name for the in-memory engine, kept so
	// existing scripts, options and journals stay valid.
	SweepEngineAuto = "auto"
	// SweepEngineSerial is a retired name for the in-memory engine, kept
	// for the same reason. The serial Sweep itself stays as the test oracle
	// and the paper's reference; no engine name selects it.
	SweepEngineSerial = "serial"
	// SweepEngineParallel is the in-memory windowed engine (SweepParallel).
	SweepEngineParallel = "parallel"
	// SweepEngineSpill is the out-of-core sweep (SweepSpilledOpts): the
	// pair list makes one round trip through a checksummed spill file and
	// is then swept by the windowed engine. The facade reaches it through
	// the explicit engine option or the memory-budget admission path.
	SweepEngineSpill = "spill"
)

// ChooseSweepEngine returns SweepEngineParallel, the one in-memory engine,
// whatever its arguments.
//
// Deprecated: there is no engine choice left to make. It stays only so
// existing callers keep compiling.
func ChooseSweepEngine(ops int64, workers int, _ bool) string {
	return SweepEngineParallel
}
