// Package fault provides deterministic, always-compiled fault-injection
// points for the execution layer's failure-behavior tests. Production code
// calls Hit at a small set of named sites (the registry below); a test arms
// a point with the ordinal of the hit that should fire and an action to run
// at that hit — panic, cancel a context, sleep, or nothing (the caller can
// branch on Hit's return value instead, as the spill writer does).
//
// The design constraints mirror the differential harness the points feed:
//
//   - Deterministic addressing. A point fires at its N-th hit, counted by a
//     global atomic per point. At serial sites (window cuts, spill blocks,
//     journal appends) the N-th hit is the same program state on
//     every run, so a fault is a reproducible coordinate, not a probability.
//     At concurrent sites (worker spawns) the N-th hit may land on any
//     worker, but the *observable* outcome — a typed error from the entry
//     point — is identical.
//   - Zero cost when disarmed. The fast path is one atomic load; no point
//     allocates, and nothing is registered at init time. The package is
//     compiled into release builds (no build tags), so the tested binary is
//     the shipped binary.
//   - No dependencies. The package imports only the standard library and is
//     imported by every package that hosts a point; it must never import
//     anything from this module.
//
// Tests must call Reset (typically via defer) after arming points; armed
// state is process-global.
package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point identifies one injection site. The registry is intentionally small:
// every point is documented in DESIGN.md and exercised by the fault-matrix
// CI job.
type Point uint8

const (
	// WorkerPanic fires in a par worker pool immediately before the worker
	// body runs — one hit per worker launch. Arming it with a panicking
	// action simulates a crash inside a fan-out; the pool must recover it,
	// cancel its siblings, and surface a typed *par.WorkerPanicError.
	WorkerPanic Point = iota
	// SlowProducer fires in the spilled sweep's read-back, once per block
	// read from the spill file, before the block's cancellation poll.
	// Arming it with a sleep simulates a stalled disk read, and with a
	// context cancel a cancellation mid-read; the merge stream must stay
	// bitwise identical (slow is not wrong).
	SlowProducer
	// CancelWindow fires at every op-count window cut of the sweep engine —
	// the engine's cancellation points. Arming it with a context-cancel
	// action at hit K cancels the run at window K exactly, which is how the
	// harness pins the one-window cancel-latency bound.
	CancelWindow
	// StreamIngest fires once per arrival batch at the head of the stream
	// engine's ingest, before any state is touched. Arming it with a
	// context-cancel action proves a cancelled ingest is atomic: the engine
	// reports ctx.Err() and the next Snapshot still matches the batch oracle
	// on the pre-batch graph.
	StreamIngest
	// StreamSnapshot fires at the sweep entry of every stream snapshot,
	// after the pending refresh completed and before the sweep starts.
	// Arming it with a context-cancel action exercises the snapshot-abort
	// path; disarmed runs stay golden.
	StreamSnapshot
	// SpillWrite fires in the spill file's writer, once per block write.
	// A firing hit is the fault: the block is not written and the file
	// fails with an ENOSPC-shaped typed error. The entry point must return
	// that typed error with the pair list intact and no spill file left
	// behind.
	SpillWrite
	// SpillRead fires in the spill file's read-back, once per file, after
	// the real checksum verified. A firing hit reports the file as
	// corrupted (the checksum-mismatch typed error), exercising the
	// read-back failure path without crafting a corrupt file on disk.
	SpillRead
	// JournalAppend fires in the persistence layer's job journal, once per
	// record append, before any byte reaches the file. A firing hit is the
	// fault: the append fails with the journal's typed write error and the
	// daemon must degrade to memory-only durability — it keeps serving, it
	// never corrupts the journal tail. Armed with a process-kill action it
	// is the kill-and-restart harness's "crash at journal append" point.
	JournalAppend
	// CacheStoreWrite fires in the persistence layer's entry store, once
	// per entry write (durable cache entries, graph blobs), before the temp
	// file is created. A firing hit fails the write with
	// the store's typed error; callers treat a failed store as a skipped
	// write (memory-only), never as job failure.
	CacheStoreWrite
	// CacheStoreLoad fires in the persistence layer's entry store, once per
	// entry read, after the real checksum verified. A firing hit reports
	// the entry as corrupted, exercising the corruption-as-miss path
	// without crafting a corrupt file on disk.
	CacheStoreLoad
	numPoints
)

// String returns the registry name of the point.
func (p Point) String() string {
	switch p {
	case WorkerPanic:
		return "worker-panic"
	case SlowProducer:
		return "slow-producer"
	case CancelWindow:
		return "cancel-window"
	case StreamIngest:
		return "stream-ingest"
	case StreamSnapshot:
		return "stream-snapshot"
	case SpillWrite:
		return "spill-write"
	case SpillRead:
		return "spill-read"
	case JournalAppend:
		return "journal-append"
	case CacheStoreWrite:
		return "cache-store-write"
	case CacheStoreLoad:
		return "cache-store-load"
	default:
		return "invalid"
	}
}

// Points returns every registered injection point, for docs and the
// fault-matrix test that arms each one in turn.
func Points() []Point {
	return []Point{WorkerPanic, SlowProducer, CancelWindow, StreamIngest, StreamSnapshot, SpillWrite, SpillRead, JournalAppend, CacheStoreWrite, CacheStoreLoad}
}

type arming struct {
	hitN   int64
	action func()
}

var (
	// armedCount gates the fast path: zero means every Hit is a single
	// atomic load and an immediate return.
	armedCount atomic.Int32
	mu         sync.Mutex
	armed      [numPoints]atomic.Pointer[arming]
	hits       [numPoints]atomic.Int64
)

// Arm schedules action to run at the hitN-th Hit of p (1-based) counted from
// the last Reset. A nil action is valid: the firing hit then only reports
// true to its call site. Re-arming a point replaces its previous arming; the
// hit counter is not reset (use Reset between scenarios).
func Arm(p Point, hitN int64, action func()) {
	if p >= numPoints || hitN < 1 {
		panic("fault: invalid arming")
	}
	mu.Lock()
	defer mu.Unlock()
	if armed[p].Swap(&arming{hitN: hitN, action: action}) == nil {
		armedCount.Add(1)
	}
}

// Reset disarms every point and zeroes every hit counter. Tests that arm
// points must defer a Reset; armed state is process-global.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := Point(0); p < numPoints; p++ {
		if armed[p].Swap(nil) != nil {
			armedCount.Add(-1)
		}
		hits[p].Store(0)
	}
}

// Armed reports how many points are currently armed. The golden differential
// tests assert 0 before pinning hashes.
func Armed() int {
	return int(armedCount.Load())
}

// ArmFromEnv arms one point from a "name:hitN:action" spec, the interface a
// crash harness uses to inject faults into a daemon subprocess it cannot call
// Arm inside. name is a registry name as printed by Point.String, hitN the
// 1-based firing ordinal, and action one of:
//
//   - "kill" — the process SIGKILLs itself at the hit (os.Process.Kill on
//     the daemon's own pid), the deterministic stand-in for a crash or
//     OOM-kill at exactly that persistence operation. No deferred cleanup
//     runs, which is the point.
//   - "fail" — no action; the firing hit only reports true to its call
//     site, exercising the typed-error path.
//
// An empty spec is a no-op, so callers can pass os.Getenv verbatim.
func ArmFromEnv(spec string) error {
	if spec == "" {
		return nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("fault: spec %q, want name:hitN:action", spec)
	}
	var point Point = numPoints
	for p := Point(0); p < numPoints; p++ {
		if p.String() == parts[0] {
			point = p
			break
		}
	}
	if point == numPoints {
		return fmt.Errorf("fault: unknown point %q", parts[0])
	}
	hitN, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || hitN < 1 {
		return fmt.Errorf("fault: bad hit ordinal %q", parts[1])
	}
	var action func()
	switch parts[2] {
	case "kill":
		action = func() {
			p, err := os.FindProcess(os.Getpid())
			if err == nil {
				p.Kill()
			}
			select {} // never proceed past the kill point
		}
	case "fail":
		action = nil
	default:
		return fmt.Errorf("fault: unknown action %q (want kill or fail)", parts[2])
	}
	Arm(point, hitN, action)
	return nil
}

// Hit records one arrival at point p and reports whether the armed action
// fired at this hit. When no point is armed anywhere in the process, Hit is
// one atomic load. Hits are counted only while at least one point is armed,
// so a test's hit ordinals are relative to its own Arm/Reset bracket rather
// than to process history.
func Hit(p Point) bool {
	if armedCount.Load() == 0 {
		return false
	}
	n := hits[p].Add(1)
	a := armed[p].Load()
	if a == nil || n != a.hitN {
		return false
	}
	if a.action != nil {
		a.action()
	}
	return true
}
