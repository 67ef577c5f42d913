package linkclust

import (
	"flag"
	"os"
	"runtime"
	"testing"
)

// TestMain oversubscribes the runtime on small CI machines so the
// differential, race, cancellation, and fault suites keep exercising real
// multi-worker interleavings: par.DefaultCap tracks max(GOMAXPROCS, NumCPU)
// with no unconditional floor, and without this bump a 1-core runner would
// clamp every T=2..8 scenario to serial — the suites would pass trivially
// without testing the parallel engines at all. A benchmark run (-test.bench
// set) keeps the machine's GOMAXPROCS, so its figures describe the machine.
func TestMain(m *testing.M) {
	flag.Parse()
	if runtime.GOMAXPROCS(0) < 8 && flag.Lookup("test.bench").Value.String() == "" {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}
