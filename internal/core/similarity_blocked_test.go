package core

import (
	"fmt"
	"testing"
)

// forceBlockedKernel shrinks the blocked kernel's structural gates so every
// row with candidates takes the blocked path cut into many tiny tiles, and
// returns a restore function. The gate vars are read only by synchronous
// kernel calls, so set/restore around them is race-free.
func forceBlockedKernel() (restore func()) {
	oldV, oldDeg, oldSpan := wedgeBlockV, wedgeBlockedMinDeg, wedgeBlockedMinSpanBlocks
	wedgeBlockV, wedgeBlockedMinDeg, wedgeBlockedMinSpanBlocks = 8, 1, 1
	return func() {
		wedgeBlockV, wedgeBlockedMinDeg, wedgeBlockedMinSpanBlocks = oldV, oldDeg, oldSpan
	}
}

// TestWedgeBlockedForcedDifferential forces the blocked kernel onto every row
// with 8-id tiles and requires bitwise-identical output to the unblocked
// kernel on every graph family — pre-Sort master order included — serially
// and at several worker counts.
func TestWedgeBlockedForcedDifferential(t *testing.T) {
	for name, g := range wedgeTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			plain := Similarity(g) // default gates: small rows run unblocked
			restore := forceBlockedKernel()
			defer restore()
			blocked := Similarity(g)
			requireIdenticalPreSort(t, "forced-blocked vs unblocked", blocked, plain)
			for _, workers := range []int{2, 8} {
				pb := SimilarityParallel(g, workers)
				requireIdenticalPreSort(t, fmt.Sprintf("forced-blocked parallel T=%d", workers), pb, plain)
			}
		})
	}
}

// TestWedgeBlockedScratchClean extends the reset discipline check to the
// blocked path: after forced-blocked runs over a dense graph, the shared
// dense scratch must be spotless.
func TestWedgeBlockedScratchClean(t *testing.T) {
	restore := forceBlockedKernel()
	defer restore()
	for name, g := range wedgeTestGraphs(t) {
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		ra := newRowAccum(n)
		for u := 0; u < n; u++ {
			if w := ra.enumerateRowDispatch(g, u); w > 0 {
				pairs := make([]Pair, len(ra.touched))
				commons := make([]int32, w)
				h := make([]float64, n)
				ra.emitRow(u, h, h, pairs, commons)
			}
			ra.resetMarks(g, u)
		}
		for v := 0; v < n; v++ {
			if ra.dot[v] != 0 || ra.cnt[v] != 0 || ra.wTo[v] != 0 {
				t.Fatalf("%s: scratch dirty at %d: dot=%v cnt=%d wTo=%v", name, v, ra.dot[v], ra.cnt[v], ra.wTo[v])
			}
		}
	}
}

// requireIdenticalPreSort asserts two pair lists are element-wise identical
// in their natural (pre-Sort) order — the blocked kernel's contract is the
// plain wedge kernel's exact master order, not just set equality.
func requireIdenticalPreSort(t *testing.T, label string, got, want *PairList) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		g, w := &got.Pairs[i], &want.Pairs[i]
		if g.U != w.U || g.V != w.V {
			t.Fatalf("%s pair %d: (%d,%d), want (%d,%d)", label, i, g.U, g.V, w.U, w.V)
		}
		if g.Sim != w.Sim {
			t.Fatalf("%s pair (%d,%d): sim %v, want bitwise-equal %v", label, g.U, g.V, g.Sim, w.Sim)
		}
		if len(g.Common) != len(w.Common) {
			t.Fatalf("%s pair (%d,%d): commons %v, want %v", label, g.U, g.V, g.Common, w.Common)
		}
		for j := range w.Common {
			if g.Common[j] != w.Common[j] {
				t.Fatalf("%s pair (%d,%d): commons %v, want %v", label, g.U, g.V, g.Common, w.Common)
			}
		}
	}
}
