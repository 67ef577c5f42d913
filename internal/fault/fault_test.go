package fault

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDisarmedHitIsFalse(t *testing.T) {
	Reset()
	for _, p := range Points() {
		if Hit(p) {
			t.Fatalf("disarmed point %v fired", p)
		}
	}
	if Armed() != 0 {
		t.Fatalf("Armed() = %d, want 0", Armed())
	}
}

func TestArmFiresAtExactHit(t *testing.T) {
	defer Reset()
	Reset()
	var fired atomic.Int32
	Arm(CancelWindow, 3, func() { fired.Add(1) })
	for i := 1; i <= 5; i++ {
		got := Hit(CancelWindow)
		if want := i == 3; got != want {
			t.Fatalf("hit %d: fired=%v, want %v", i, got, want)
		}
	}
	if fired.Load() != 1 {
		t.Fatalf("action ran %d times, want 1", fired.Load())
	}
}

func TestArmNilActionReportsOnly(t *testing.T) {
	defer Reset()
	Reset()
	Arm(SpillWrite, 1, nil)
	if !Hit(SpillWrite) {
		t.Fatal("first hit of armed point did not report")
	}
	if Hit(SpillWrite) {
		t.Fatal("second hit reported after one-shot fired")
	}
}

func TestPointsAreIndependent(t *testing.T) {
	defer Reset()
	Reset()
	Arm(WorkerPanic, 1, nil)
	if Hit(SlowProducer) {
		t.Fatal("unarmed sibling point fired")
	}
	if !Hit(WorkerPanic) {
		t.Fatal("armed point did not fire")
	}
}

func TestResetClearsCountersAndArmings(t *testing.T) {
	Reset()
	Arm(SlowProducer, 2, nil)
	Hit(SlowProducer)
	Reset()
	if Armed() != 0 {
		t.Fatalf("Armed() = %d after Reset, want 0", Armed())
	}
	// Re-arm at hit 2: the counter must have restarted from zero.
	defer Reset()
	Arm(SlowProducer, 2, nil)
	if Hit(SlowProducer) {
		t.Fatal("hit 1 fired an arming for hit 2")
	}
	if !Hit(SlowProducer) {
		t.Fatal("hit 2 did not fire")
	}
}

// TestArmFromEnv covers the subprocess arming interface: a valid fail spec
// arms the named point at the named ordinal, malformed specs error without
// arming anything, and the empty spec is a no-op.
func TestArmFromEnv(t *testing.T) {
	defer Reset()
	Reset()
	if err := ArmFromEnv(""); err != nil || Armed() != 0 {
		t.Fatalf("empty spec: err=%v armed=%d, want nil/0", err, Armed())
	}
	for _, bad := range []string{"journal-append", "journal-append:1", "nope:1:fail", "journal-append:0:fail", "journal-append:x:fail", "journal-append:1:explode"} {
		if err := ArmFromEnv(bad); err == nil {
			t.Fatalf("spec %q accepted, want error", bad)
		}
	}
	if Armed() != 0 {
		t.Fatalf("Armed() = %d after rejected specs, want 0", Armed())
	}
	if err := ArmFromEnv("cache-store-load:2:fail"); err != nil {
		t.Fatal(err)
	}
	if Hit(CacheStoreLoad) {
		t.Fatal("hit 1 fired a spec armed for hit 2")
	}
	if !Hit(CacheStoreLoad) {
		t.Fatal("hit 2 did not fire")
	}
}

// TestConcurrentHitsFireExactlyOnce drives an armed point from many
// goroutines: exactly one hit may observe the firing ordinal.
func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	defer Reset()
	Reset()
	var fired atomic.Int32
	Arm(WorkerPanic, 64, func() { fired.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				Hit(WorkerPanic)
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 1 {
		t.Fatalf("action ran %d times across 256 concurrent hits, want 1", fired.Load())
	}
}
