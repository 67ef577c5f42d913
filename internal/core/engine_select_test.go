package core

import "testing"

// TestChooseSweepEngine pins the deprecated selector to the one in-memory
// engine: no op count, worker count or flag picks anything else.
func TestChooseSweepEngine(t *testing.T) {
	for _, c := range []struct {
		ops     int64
		workers int
		flag    bool
	}{
		{0, 0, false},
		{999, 8, true},
		{1 << 40, 1, false},
		{1 << 40, 8, true},
	} {
		if got := ChooseSweepEngine(c.ops, c.workers, c.flag); got != SweepEngineParallel {
			t.Errorf("ChooseSweepEngine(%d, %d, %v) = %q, want %q", c.ops, c.workers, c.flag, got, SweepEngineParallel)
		}
	}
}
