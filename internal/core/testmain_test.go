package core

import (
	"flag"
	"os"
	"runtime"
	"testing"
)

// TestMain oversubscribes the runtime on small CI machines so multi-worker
// scenarios keep engaging the parallel code paths: par.DefaultCap tracks
// max(GOMAXPROCS, NumCPU) with no unconditional floor, and without this
// bump a 1-core runner would normalize every T=2..8 request to serial. A
// benchmark run (-test.bench set) keeps the machine's GOMAXPROCS, so its
// figures describe the machine.
func TestMain(m *testing.M) {
	flag.Parse()
	if runtime.GOMAXPROCS(0) < 8 && flag.Lookup("test.bench").Value.String() == "" {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}
