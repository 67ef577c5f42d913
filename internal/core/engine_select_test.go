package core

import (
	"runtime"
	"testing"
)

// TestChooseSweepEngine pins the auto policy around its measured threshold:
// serial below it or whenever workers normalize to one, parallel above it
// whatever the ignored third argument says.
func TestChooseSweepEngine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("worker normalization clamps to 1 here; multi-worker selection untestable")
	}
	old := SweepAutoMinOps
	defer func() { SweepAutoMinOps = old }()
	SweepAutoMinOps = 1000

	for _, c := range []struct {
		ops      int64
		workers  int
		pipeline bool
		want     string
	}{
		{999, 8, false, SweepEngineSerial}, // below threshold
		{999, 8, true, SweepEngineSerial},
		{1000, 8, false, SweepEngineParallel},
		{1000, 8, true, SweepEngineParallel},   // the third argument selects nothing
		{1 << 40, 1, false, SweepEngineSerial}, // one worker: parallel can only lose
		{1 << 40, 1, true, SweepEngineSerial},
		{1 << 40, 0, false, SweepEngineSerial}, // 0 normalizes to 1
	} {
		if got := ChooseSweepEngine(c.ops, c.workers, c.pipeline); got != c.want {
			t.Errorf("ChooseSweepEngine(%d, %d, %v) = %q, want %q", c.ops, c.workers, c.pipeline, got, c.want)
		}
	}
}
