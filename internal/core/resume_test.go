package core

import (
	"context"
	"fmt"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// TestSweepResumeFromEveryCheckpoint pins where a checkpointing run saves:
// at least three checkpoints, each before the closing window, and a final
// one at the closing window's end that counts exactly the ops below it.
// Resuming from every one of them, at several worker counts, over the same
// list and over a fresh unsorted one, is the oracle's resumed path
// (oracle_test.go), run here on the same graphs.
func TestSweepResumeFromEveryCheckpoint(t *testing.T) {
	fams := erFamilies(300, 0.08, 0, 1, 2)
	for _, f := range fams {
		pl := Similarity(f.g)
		var ckpts []SweepState
		if _, err := SweepResumeCtx(context.Background(), f.g, pl, nil, 4, 2048,
			func(s SweepState, _ bool) { ckpts = append(ckpts, s) }, nil); err != nil {
			t.Fatal(err)
		}
		if len(ckpts) < 3 {
			t.Fatalf("%s: only %d checkpoints (need intermediate coverage)", f.name, len(ckpts))
		}
		// The final checkpoint sits at the closing window's end: the first
		// state whose merges span the op graph, with nothing captured past it.
		last := ckpts[len(ckpts)-1]
		forest := forestSize(f.g)
		if last.Levels != forest || last.Pos >= len(pl.Pairs) {
			t.Fatalf("%s: final checkpoint at pos %d of %d with %d levels, want the closing window (forest %d)",
				f.name, last.Pos, len(pl.Pairs), last.Levels, forest)
		}
		if ops := opsBelow(pl, last.Pos); last.PairsProcessed != ops {
			t.Fatalf("%s: final checkpoint counts %d ops, %d lie below its pos", f.name, last.PairsProcessed, ops)
		}
		for _, c := range ckpts[:len(ckpts)-1] {
			if c.Levels >= forest || c.Pos >= last.Pos {
				t.Fatalf("%s: checkpoint at pos %d (%d levels) is not before the closing window at %d",
					f.name, c.Pos, c.Levels, last.Pos)
			}
		}
	}
	runOracle(t, fams, []int{4}, pathResumed)
}

// opsBelow sums the incident-operation counts of pairs below pos.
func opsBelow(pl *PairList, pos int) int64 {
	var n int64
	for _, p := range pl.Pairs[:pos] {
		n += int64(p.N)
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
			if *p != *q {
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
// similarities, identical common-neighbor counts — on every shared test
// family.
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
				if gotP := rows[i]; gotP != want {
					t.Fatalf("pair %d = %+v, want %+v", i, gotP, want)
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
