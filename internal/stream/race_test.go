package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
	"linkclust/internal/testkit"
)

// TestStreamConcurrentIngestSnapshot hammers one engine from concurrent
// ingesters and snapshotters (run under -race in CI): every snapshot must be
// internally consistent, and the final state must match the batch oracle on
// the accumulated graph. Concurrent interleaving makes edge-id assignment
// order nondeterministic, so the oracle is built from the engine's own graph
// rather than from a replayed arrival order.
func TestStreamConcurrentIngestSnapshot(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, rng.New(2))
	arrivals := arrivalsOf(g)
	e, err := New(Options{Workers: 2, MaxVertices: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	const ingesters = 4
	errCh := make(chan error, ingesters+2)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var ingestWG sync.WaitGroup
	for i := 0; i < ingesters; i++ {
		ingestWG.Add(1)
		go func(i int) {
			defer ingestWG.Done()
			for lo := i; lo < len(arrivals); lo += ingesters {
				a := arrivals[lo]
				if err := e.Ingest(a.U, a.V, a.W); err != nil {
					report(fmt.Errorf("ingester %d: %w", i, err))
					return
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Snapshot(); err != nil {
					report(fmt.Errorf("snapshotter: %w", err))
					return
				}
			}
		}()
	}
	ingestWG.Wait()
	close(stop)
	snapWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	res, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	final := e.Graph()
	want, err := core.Sweep(final, core.Similarity(final))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "concurrent final", res, want)
}

// TestStreamCancelIngestLeavesValidState cancels an ingest at its first
// row-recompute poll: the arrival batch is already applied to the graph, the
// similarity refresh is abandoned, and the next (uncancelled) snapshot must
// still match the batch oracle on the full accumulated graph — the deferred
// refresh completes it. No goroutine may outlive the cancelled call.
func TestStreamCancelIngestLeavesValidState(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, rng.New(5))
	arrivals := arrivalsOf(g)
	base := runtime.NumGoroutine()
	e, err := New(Options{Workers: 4, MaxVertices: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	half := len(arrivals) / 2
	if err := e.IngestBatch(arrivals[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// k=1: the entry poll passes, the first row-loop poll cancels — after
	// the graph mutation, before the refresh commits.
	err = e.IngestBatchCtx(testkit.NewCountdownCtx(1), arrivals[half:])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest: err = %v, want context.Canceled", err)
	}
	testkit.WaitGoroutines(t, base)
	if got := e.Graph().NumEdges(); got != len(arrivals) {
		t.Fatalf("cancelled ingest left %d edges, want %d applied", got, len(arrivals))
	}
	res, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after cancelled ingest: %v", err)
	}
	requireSameResult(t, "after cancelled ingest", res,
		batchOracle(t, g.NumVertices(), arrivals, len(arrivals)))
	testkit.WaitGoroutines(t, base)
}

// TestStreamCancelSnapshotRetries cancels a snapshot mid-sweep and requires
// the engine to survive: the cancelled call returns context.Canceled and no
// result, the state is unchanged, and an immediate retry produces the exact
// batch answer.
func TestStreamCancelSnapshotRetries(t *testing.T) {
	g := graph.ErdosRenyi(64, 0.2, rng.New(6))
	arrivals := arrivalsOf(g)
	base := runtime.NumGoroutine()
	e, err := New(Options{Workers: 4, MaxVertices: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch(arrivals); err != nil {
		t.Fatal(err)
	}
	res, err := e.SnapshotCtx(testkit.NewCountdownCtx(2))
	testkit.RequireCanceled(t, "cancelled snapshot", res, err)
	testkit.WaitGoroutines(t, base)
	got, err := e.Snapshot()
	if err != nil {
		t.Fatalf("retry after cancelled snapshot: %v", err)
	}
	requireSameResult(t, "retry after cancel", got,
		batchOracle(t, g.NumVertices(), arrivals, len(arrivals)))
	testkit.WaitGoroutines(t, base)
}
