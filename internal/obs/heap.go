package obs

import "runtime/metrics"

// liveHeapMetric is the runtime/metrics key LiveHeapBytes samples: bytes
// occupied by live heap objects (plus dead objects not yet swept) — the
// runtime/metrics counterpart of MemStats.HeapAlloc. Unlike
// runtime.ReadMemStats, reading it does not stop the world: metrics.Read
// takes a snapshot of runtime-maintained counters, costing well under a
// microsecond (see BenchmarkLiveHeapBytes), so it is safe on paths hot
// enough to run per job admission.
const liveHeapMetric = "/memory/classes/heap/objects:bytes"

// LiveHeapBytes returns the current live-heap size without stopping the
// world. It is safe to call concurrently from any goroutine; services use
// it for admission checks against an absolute heap ceiling and for their
// metrics.
func LiveHeapBytes() uint64 {
	s := [1]metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}
