package core

import (
	"context"
	"fmt"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// requireIdenticalChainState extends requireIdenticalSweep to the raw chain
// array and its rewrite counter — the resume contract is bitwise state
// equality, not just equal output.
func requireIdenticalChainState(t *testing.T, label string, got, want *Result) {
	t.Helper()
	requireIdenticalSweep(t, label, got, want)
	gc, wc := got.Chain.c, want.Chain.c
	if len(gc) != len(wc) {
		t.Fatalf("%s: chain has %d entries, want %d", label, len(gc), len(wc))
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: chain[%d] = %d, want %d", label, i, gc[i], wc[i])
		}
	}
	if got.Chain.Changes() != want.Chain.Changes() {
		t.Fatalf("%s: %d chain rewrites, want %d", label, got.Chain.Changes(), want.Chain.Changes())
	}
}

// TestSweepResumeFromEveryCheckpoint is the resume engine's differential
// test: a checkpointing run must (a) itself match SweepParallel bitwise, and
// (b) every checkpoint it emits, replayed on a fresh engine over the same
// sorted list, must reproduce the same final state — merge stream, chain
// array, rewrite counter — at several worker counts on both sides.
func TestSweepResumeFromEveryCheckpoint(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(300, 0.08, rng.New(seed))
		want, err := SweepParallel(g, Similarity(g), 4)
		if err != nil {
			t.Fatal(err)
		}
		pl := Similarity(g)
		var ckpts []SweepState
		got, err := SweepResumeCtx(context.Background(), g, pl, nil, 4, 2048,
			func(s SweepState, _ bool) { ckpts = append(ckpts, s) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalChainState(t, fmt.Sprintf("seed=%d full", seed), got, want)
		if len(ckpts) < 3 {
			t.Fatalf("seed=%d: only %d checkpoints (need intermediate coverage)", seed, len(ckpts))
		}
		// The final checkpoint sits at the closing window's end: the first
		// state whose merges span the op graph, with nothing captured past it.
		last := ckpts[len(ckpts)-1]
		forest := forestSize(g)
		if last.Levels != forest || last.Pos >= len(pl.Pairs) {
			t.Fatalf("seed=%d: final checkpoint at pos %d of %d with %d levels, want the closing window (forest %d)",
				seed, last.Pos, len(pl.Pairs), last.Levels, forest)
		}
		if ops := opsBelow(pl, last.Pos); last.PairsProcessed != ops {
			t.Fatalf("seed=%d: final checkpoint counts %d ops, %d lie below its pos", seed, last.PairsProcessed, ops)
		}
		for _, c := range ckpts[:len(ckpts)-1] {
			if c.Levels >= forest || c.Pos >= last.Pos {
				t.Fatalf("seed=%d: checkpoint at pos %d (%d levels) is not before the closing window at %d",
					seed, c.Pos, c.Levels, last.Pos)
			}
		}
		for ci := range ckpts {
			workers := 1 + ci%8
			res, err := SweepResumeCtx(context.Background(), g, pl, &ckpts[ci], workers, 0, nil, nil)
			if err != nil {
				t.Fatalf("seed=%d ckpt=%d: %v", seed, ci, err)
			}
			requireIdenticalChainState(t,
				fmt.Sprintf("seed=%d resume from pos %d T=%d", seed, ckpts[ci].Pos, workers), res, want)
		}
	}
}

// opsBelow sums the incident-operation counts of pairs below pos.
func opsBelow(pl *PairList, pos int) int64 {
	var n int64
	for _, p := range pl.Pairs[:pos] {
		n += int64(len(p.Common))
	}
	return n
}

// TestSweepResumeClosedOnGrownGraph resumes from a closed run's final
// checkpoint against a grown graph: the checkpoint's chain is extended with
// singleton entries for the new edges, and the resumed run must equal a
// from-scratch run on the grown graph bitwise — merge stream, chain array,
// rewrite counter. Two growths: a lone edge leaves the spanning-forest size
// unchanged, so the resumed engine is closed on entry; a weak path adds one
// pair that sorts after the checkpoint and one forest edge, so the resumed
// engine must keep cutting windows from the checkpoint, exactly where a
// from-scratch run does.
func TestSweepResumeClosedOnGrownGraph(t *testing.T) {
	g0 := graph.ErdosRenyi(300, 0.08, rng.New(5))
	pl0 := Similarity(g0)
	var final SweepState
	if _, err := SweepResumeCtx(context.Background(), g0, pl0, nil, 2, 4096,
		func(s SweepState, last bool) {
			if last {
				final = s
			}
		}, nil); err != nil {
		t.Fatal(err)
	}
	if final.Levels != forestSize(g0) || final.Pos >= len(pl0.Pairs) {
		t.Fatalf("final checkpoint at pos %d of %d with %d levels: the run did not close (forest %d)",
			final.Pos, len(pl0.Pairs), final.Levels, forestSize(g0))
	}
	n := g0.NumVertices()
	for _, grow := range []struct {
		name   string
		add    func(b *graph.Builder)
		forest int32 // spanning-forest edges the growth adds
	}{
		{"lone-edge", func(b *graph.Builder) { b.MustAddEdge(n, n+1, 0.5) }, 0},
		{"weak-path", func(b *graph.Builder) {
			b.MustAddEdge(n, n+1, 0.5)
			b.MustAddEdge(n+2, n+3, 1)
			b.MustAddEdge(n+3, n+4, 1e-9)
		}, 1},
	} {
		name := grow.name
		b := graph.NewBuilder(n + 5)
		for _, e := range g0.Edges() {
			b.MustAddEdge(int(e.U), int(e.V), e.Weight)
		}
		grow.add(b)
		g1 := b.Build(nil)
		if got := forestSize(g1); got != final.Levels+grow.forest {
			t.Fatalf("%s: forest %d, want %d", name, got, final.Levels+grow.forest)
		}
		pl1 := Similarity(g1)
		pl1.Sort()
		for i := 0; i < final.Pos; i++ {
			p, q := &pl0.Pairs[i], &pl1.Pairs[i]
			if p.U != q.U || p.V != q.V || p.Sim != q.Sim || len(p.Common) != len(q.Common) {
				t.Fatalf("%s: grown list diverges at pair %d, before the checkpoint at %d", name, i, final.Pos)
			}
		}
		st := final
		st.Chain = make([]int32, g1.NumEdges())
		copy(st.Chain, final.Chain)
		for i := len(final.Chain); i < len(st.Chain); i++ {
			st.Chain[i] = int32(i)
		}
		want, err := SweepParallel(g1, pl1, 4)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Sweep(g1, pl1)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalSweep(t, name+" from scratch vs serial", want, serial)
		if want.Levels != final.Levels+grow.forest {
			t.Fatalf("%s: %d levels, want %d", name, want.Levels, final.Levels+grow.forest)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := SweepResumeCtx(context.Background(), g1, pl1, &st, workers, 0, nil, nil)
			if err != nil {
				t.Fatalf("%s T=%d: %v", name, workers, err)
			}
			requireIdenticalChainState(t, fmt.Sprintf("%s resume T=%d", name, workers), got, want)
		}
	}
}

// TestSweepResumeRejectsBadCheckpoints pins the validation errors.
func TestSweepResumeRejectsBadCheckpoints(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.1, rng.New(7))
	pl := Similarity(g)
	pl.Sort()
	bad := []SweepState{
		{Pos: -1, Chain: make([]int32, g.NumEdges())},
		{Pos: len(pl.Pairs) + 1, Chain: make([]int32, g.NumEdges())},
		{Pos: 0, Chain: make([]int32, g.NumEdges()+3)},
	}
	for i := range bad {
		if _, err := SweepResumeCtx(context.Background(), g, pl, &bad[i], 2, 0, nil, nil); err == nil {
			t.Errorf("checkpoint %d accepted", i)
		}
	}
}

// TestRowKernelMatchesBatch checks that RowKernel.Row reproduces, row for
// row, exactly the pairs the batch wedge kernel emits — same order, bitwise
// similarities, identical Common lists — on every shared test family.
func TestRowKernelMatchesBatch(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			batch := Similarity(g)
			n := g.NumVertices()
			h1 := make([]float64, n)
			h2 := make([]float64, n)
			VertexNorms(g, h1, h2, 0, n)
			rk := NewRowKernel(n)
			var rows []Pair
			for u := 0; u < n; u++ {
				rows = append(rows, rk.Row(g, u, h1, h2)...)
			}
			if len(rows) != len(batch.Pairs) {
				t.Fatalf("%d pairs, batch has %d", len(rows), len(batch.Pairs))
			}
			for i, want := range batch.Pairs {
				gotP := rows[i]
				if gotP.U != want.U || gotP.V != want.V || gotP.Sim != want.Sim {
					t.Fatalf("pair %d = (%d,%d,%x), want (%d,%d,%x)",
						i, gotP.U, gotP.V, gotP.Sim, want.U, want.V, want.Sim)
				}
				if len(gotP.Common) != len(want.Common) {
					t.Fatalf("pair %d: %d commons, want %d", i, len(gotP.Common), len(want.Common))
				}
				for j := range want.Common {
					if gotP.Common[j] != want.Common[j] {
						t.Fatalf("pair %d common %d = %d, want %d", i, j, gotP.Common[j], want.Common[j])
					}
				}
			}
		})
	}
}

// TestVertexNormsPartialRefresh checks the incremental norm contract: after
// an edge arrival, refreshing only the two endpoints on arrays carrying the
// old graph's norms yields exactly the fresh batch arrays.
func TestVertexNormsPartialRefresh(t *testing.T) {
	src := rng.New(11)
	g0 := graph.ErdosRenyi(60, 0.08, src)
	n := g0.NumVertices()
	h1 := make([]float64, n)
	h2 := make([]float64, n)
	VertexNorms(g0, h1, h2, 0, n)

	// Rebuild with one extra edge, refresh only its endpoints.
	b := graph.NewBuilder(n)
	for _, e := range g0.Edges() {
		b.MustAddEdge(int(e.U), int(e.V), e.Weight)
	}
	u, v := 0, n-1
	if _, ok := g0.EdgeBetween(u, v); ok {
		t.Skip("random graph already has the probe edge")
	}
	b.MustAddEdge(u, v, 0.7)
	g1 := b.Build(nil)
	VertexNorms(g1, h1, h2, u, u+1)
	VertexNorms(g1, h1, h2, v, v+1)

	w1 := make([]float64, n)
	w2 := make([]float64, n)
	VertexNorms(g1, w1, w2, 0, n)
	for i := 0; i < n; i++ {
		if h1[i] != w1[i] || h2[i] != w2[i] {
			t.Fatalf("vertex %d: partial (%x,%x) vs batch (%x,%x)", i, h1[i], h2[i], w1[i], w2[i])
		}
	}
}
