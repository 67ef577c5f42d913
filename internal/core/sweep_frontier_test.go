package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// sweepFrontierFed drives the windowed engine through consume in frontier
// increments, the way SweepResumeCtx feeds it: the pairs of pl are placed in
// their similarity buckets, each bucket is sorted in turn, and its end is
// handed to the engine as the new frontier. A pl already marked sorted
// skips the partition and is fed one pair at a time, the finest frontier
// granularity. pl itself is left untouched; the engine's pair buffer is
// returned alongside the result.
func sweepFrontierFed(g *graph.Graph, pl *PairList, workers int) (*Result, []Pair, error) {
	return frontierFed(g, pl, workers, false)
}

// sweepFrontierFedLazy is sweepFrontierFed with the closure rule of
// SweepResumeCtx: once the engine closes, buckets are fed unsorted. pl must
// not be marked sorted.
func sweepFrontierFedLazy(g *graph.Graph, pl *PairList, workers int) (*Result, []Pair, error) {
	return frontierFed(g, pl, workers, true)
}

func frontierFed(g *graph.Graph, pl *PairList, workers int, lazy bool) (*Result, []Pair, error) {
	n := len(pl.Pairs)
	buf := make([]Pair, n)
	e := &sweepEngine{g: g, pl: &PairList{Pairs: buf}, workers: workers, ctx: context.Background()}
	var frontiers []int
	if pl.Sorted() {
		copy(buf, pl.Pairs)
		for f := 1; f <= n; f++ {
			frontiers = append(frontiers, f)
		}
	} else {
		shift, offs, ids := bucketLayout(pl.Pairs, workers)
		if lazy {
			e.cur = &SortCursor{shift: shift, offs: offs, ids: ids, pl: e.pl, placed: len(ids)}
		}
		cur := slices.Clone(offs)
		for _, p := range pl.Pairs {
			b := simBucket(p.Sim, shift)
			buf[cur[b]] = p
			cur[b]++
		}
		for _, b := range ids {
			frontiers = append(frontiers, offs[b+1])
		}
	}

	e.init()
	lo := 0
	for _, f := range frontiers {
		if !pl.Sorted() && (!lazy || !e.closed) {
			slices.SortFunc(buf[lo:f], cmpPairs)
		}
		if err := e.consume(f, false); err != nil {
			return e.res, buf, err
		}
		lo = f
	}
	err := e.consume(n, true)
	return e.res, buf, err
}

// TestSweepPipelinedDifferential is the differential of the engine's
// pipelined (frontier-fed) consumption, the contract SweepResumeCtx relies
// on: on every graph family and every worker count 1..8, feeding the list
// bucket by bucket, each sorted only when it is reached, must reproduce the
// serial sweep exactly, and the engine's buffer must end in list-L order.
func TestSweepPipelinedDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := Sweep(g, Similarity(g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for workers := 1; workers <= 8; workers++ {
				res, buf, err := sweepFrontierFed(g, Similarity(g), workers)
				if err != nil {
					t.Fatalf("T=%d: %v", workers, err)
				}
				requireIdenticalSweep(t, fmt.Sprintf("pipelined T=%d vs serial", workers), res, serial)
				for i := 1; i < len(buf); i++ {
					if cmpPairs(buf[i-1], buf[i]) > 0 {
						t.Fatalf("T=%d: engine buffer out of order at %d", workers, i)
					}
				}
			}
		})
	}
}

// TestSweepPipelinedLargeRandom pushes past the shared families with graphs
// big enough to cut many windows, span many similarity buckets, and cross
// the engine's fan-out thresholds.
func TestSweepPipelinedLargeRandom(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(300, 0.06, rng.New(seed))
		serial, err := Sweep(g, Similarity(g))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{1, 3, 8} {
			res, _, err := sweepFrontierFed(g, Similarity(g), workers)
			if err != nil {
				t.Fatalf("seed %d T=%d: %v", seed, workers, err)
			}
			requireIdenticalSweep(t, fmt.Sprintf("seed %d T=%d", seed, workers), res, serial)
		}
	}
}

// TestSweepPipelinedPresorted advances the frontier one pair at a time over
// a pre-sorted list: window cuts depend only on op counts, so the finest
// feed must still reproduce the serial sweep.
func TestSweepPipelinedPresorted(t *testing.T) {
	g := graph.ErdosRenyi(120, 0.1, rng.New(7))
	serial, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pl := Similarity(g)
		pl.Sort()
		res, _, err := sweepFrontierFed(g, pl, workers)
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		requireIdenticalSweep(t, fmt.Sprintf("presorted T=%d", workers), res, serial)
	}
}

// TestSweepPipelinedErrorParity feeds a pair list from a foreign graph
// through the frontier: the engine must surface exactly the serial sweep's
// error (first failing operation in serial order) at every worker count,
// even though later buckets have not been fed when it fails.
func TestSweepPipelinedErrorParity(t *testing.T) {
	g, err := graph.Circulant(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	foreign := graph.Complete(48)
	_, serialErr := Sweep(g, Similarity(foreign))
	if serialErr == nil {
		t.Fatal("serial sweep accepted a foreign pair list")
	}
	for workers := 1; workers <= 8; workers++ {
		_, _, pipeErr := sweepFrontierFed(g, Similarity(foreign), workers)
		if pipeErr == nil {
			t.Fatalf("T=%d: pipelined sweep accepted a foreign pair list", workers)
		}
		if pipeErr.Error() != serialErr.Error() {
			t.Fatalf("T=%d: error %q, want serial's %q", workers, pipeErr, serialErr)
		}
	}
}
