package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/rng"
)

// TestSweepCASDifferential is the differential test of the lock-free
// min-reservation scheduler: on every graph family and every worker count
// 1..8, the engine — which routes large rounds through the CAS pass and small
// ones through the serial claim scan — must reproduce the serial sweep
// bitwise. It also checks the scheduling telemetry: a single-worker run must
// never enter the CAS pass, and across the families at least one
// multi-worker run must (otherwise the path under test silently never ran).
func TestSweepCASDifferential(t *testing.T) {
	var casRounds int64
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for workers := 1; workers <= 8; workers++ {
				rec := obs.New()
				par, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, rec)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("T=%d vs serial", workers), par, serial)
				rounds := rec.Counter(CtrSweepCASRounds)
				if workers == 1 && rounds != 0 {
					t.Fatalf("T=1 scheduled %d CAS rounds; the serial claim scan owns single-worker windows", rounds)
				}
				casRounds += rounds
			}
		})
	}
	if casRounds == 0 {
		t.Fatal("no graph family scheduled a CAS round; the lock-free scheduler was never exercised")
	}
}

// TestSweepCASEngaged pins the dispatch gate on one workload big enough to
// guarantee CAS rounds: multi-worker runs must schedule through the lock-free
// pass (and still match serial bitwise), single-worker runs must not.
func TestSweepCASEngaged(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.05, rng.New(1))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		rec := obs.New()
		par, err := SweepParallelCtx(context.Background(), g, Similarity(g), workers, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("T=%d", workers), par, serial)
		if rec.Counter(CtrSweepCASRounds) == 0 {
			t.Fatalf("T=%d: no CAS rounds on a %d-op workload", workers, serial.PairsProcessed)
		}
	}
	rec := obs.New()
	if _, err := SweepParallelCtx(context.Background(), g, Similarity(g), 1, rec); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(CtrSweepCASRounds); got != 0 {
		t.Fatalf("T=1 scheduled %d CAS rounds", got)
	}
}

// TestSweepCASSpilled checks that the out-of-core sweep — which feeds the
// same window scheduler from disk — also routes through the CAS pass at
// multi-worker counts and stays bitwise identical to serial.
func TestSweepCASSpilled(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.05, rng.New(2))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rec := obs.New()
		sp, err := SweepSpilledOpts(context.Background(), g, Similarity(g), workers, SpillOptions{Dir: t.TempDir()}, rec)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("spilled T=%d", workers), sp, serial)
		if rec.Counter(CtrSweepCASRounds) == 0 {
			t.Fatalf("spilled T=%d: no CAS rounds", workers)
		}
	}
}

// TestChainFindCompressAtomic checks the two-pass atomic find_compress that
// casRound runs — findAtomic to the terminal, then compressPathAtomic — on a
// maximal path: same root, full compression, and a rewrite count equal to
// the number of entries that did not already point at the root.
func TestChainFindCompressAtomic(t *testing.T) {
	n := 1000
	ch := NewChain(n)
	for i := 1; i < n; i++ {
		ch.c[i] = int32(i - 1) // one long path: n-1 -> n-2 -> ... -> 0
	}
	root := findAtomic(ch.c, int32(n-1))
	rewrites := compressPathAtomic(ch.c, int32(n-1), root)
	if root != 0 {
		t.Fatalf("root %d, want 0", root)
	}
	// Entry 1 already pointed at the root; entries 2..n-1 each take one CAS.
	if want := int64(n - 2); rewrites != want {
		t.Fatalf("%d rewrites, want %d", rewrites, want)
	}
	for i := range ch.c {
		if ch.c[i] != 0 {
			t.Fatalf("c[%d] = %d after compression, want 0", i, ch.c[i])
		}
	}
}

// TestChainFindCompressAtomicConcurrent hammers one long path from many
// goroutines. Under -race this proves the CAS discipline; the rewrite
// accounting must stay exact — every entry not already at the root is
// rewritten exactly once, credited to exactly one caller — because the
// engine's golden counter CtrSweepChainRewrites is built from these sums.
func TestChainFindCompressAtomicConcurrent(t *testing.T) {
	n := 4096
	ch := NewChain(n)
	for i := 1; i < n; i++ {
		ch.c[i] = int32(i - 1)
	}
	workers := 8
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := int32(n - 1 - w*17) // staggered entries onto the same path
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := findAtomic(ch.c, start)
			rw := compressPathAtomic(ch.c, start, root)
			if root != 0 {
				t.Errorf("start %d: root %d, want 0", start, root)
			}
			total.Add(rw)
		}()
	}
	wg.Wait()
	// The union of the walked paths covers entries 2..n-1 (the topmost start
	// is n-1), each rewritten exactly once across all callers.
	if want := int64(n - 2); total.Load() != want {
		t.Fatalf("total rewrites %d, want exactly %d", total.Load(), want)
	}
	for i := range ch.c {
		if ch.c[i] != 0 {
			t.Fatalf("c[%d] = %d after concurrent compression, want 0", i, ch.c[i])
		}
	}
}
