package par

import (
	"flag"
	"os"
	"runtime"
	"testing"
)

// TestMain deliberately oversubscribes the runtime on small CI machines:
// DefaultCap tracks max(GOMAXPROCS, NumCPU) with no unconditional floor, so
// on a 1-core runner every multi-worker scenario would normalize down to
// serial and the pool fan-out, panic-isolation, and leak paths under test
// would never engage. Raising GOMAXPROCS is the supported
// deliberate-oversubscription knob (see DefaultCap), used here exactly the
// way an operator would use it. A benchmark run (-test.bench set) keeps
// the machine's GOMAXPROCS, so its figures describe the machine.
func TestMain(m *testing.M) {
	flag.Parse()
	if runtime.GOMAXPROCS(0) < 8 && flag.Lookup("test.bench").Value.String() == "" {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}
