package obs

import (
	"testing"
	"time"
)

// TestMemBudgetCheckIsCheap guards the admission-path contract: one
// LiveHeapBytes read must stay far from the old ReadMemStats cost, whose
// stop-the-world made every check pause all running jobs. The
// runtime/metrics read is lock-light and costs well under a microsecond;
// the assertion uses a 20µs ceiling per call (averaged over a batch) so
// race-instrumented and heavily loaded CI runners don't flake, while still
// catching any reintroduction of a stop-the-world read (tens to hundreds
// of µs on a busy heap).
func TestMemBudgetCheckIsCheap(t *testing.T) {
	const n = 4096
	start := time.Now()
	for i := 0; i < n; i++ {
		LiveHeapBytes()
	}
	per := time.Since(start) / n
	t.Logf("LiveHeapBytes: %v per call", per)
	if per > 20*time.Microsecond {
		t.Fatalf("LiveHeapBytes costs %v per call, want well under 20µs — did a stop-the-world read come back?", per)
	}
}

// BenchmarkLiveHeapBytes measures the absolute-heap read used by service
// admission control; the daemon calls it per job submission, and the
// target is <1µs per op.
func BenchmarkLiveHeapBytes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LiveHeapBytes()
	}
}
