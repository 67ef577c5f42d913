package linkclust

import (
	"context"
	"os"
	"runtime"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
)

// Root-level differential matrix for the out-of-core sweep: the spilled
// engine against the serial and windowed parallel engines, across graph families,
// worker counts, and both radix-bucket widths, plus the facade's
// budget-breach reroute driven by a genuinely tiny budget rather than an
// injected fault.

// spillDiffGraphs returns the matrix families paired with the bucket-width
// regime their pair list lands in. The sort cursor narrows to 8-bit buckets
// below 1<<13 pairs and uses 16-bit buckets above (see core/buckets.go);
// covering both proves the read-back list sorts to list L in each regime.
func spillDiffGraphs(t *testing.T) map[string]struct {
	g    *Graph
	wide bool
} {
	t.Helper()
	pcfg := planted.DefaultConfig()
	pcfg.Nodes = 150
	pcfg.Communities = 6
	bench, err := planted.Generate(pcfg)
	if err != nil {
		t.Fatalf("planted: %v", err)
	}
	return map[string]struct {
		g    *Graph
		wide bool
	}{
		"random-narrow": {graph.ErdosRenyi(40, 0.15, rng.New(11)), false},
		"random-wide":   {graph.ErdosRenyi(300, 0.06, rng.New(12)), true},
		"planted":       {bench.Graph, true},
		"word-assoc":    {goldenGraph(t), true},
	}
}

// TestSpilledDifferentialMatrix: on every family and T ∈ {1,4,8}, the
// spilled sweep must reproduce the serial sweep bit for bit and agree with
// the windowed parallel engine, including how far each sorted the list,
// while its bytes counter stays worker-invariant.
func TestSpilledDifferentialMatrix(t *testing.T) {
	for name, tc := range spillDiffGraphs(t) {
		t.Run(name, func(t *testing.T) {
			g := tc.g
			if wide := core.Similarity(g).NumIncidentPairs() >= 1<<13; wide != tc.wide {
				t.Fatalf("family sized for wide=%v buckets but NumIncidentPairs lands in wide=%v", tc.wide, wide)
			}
			serial, err := SweepCtx(context.Background(), g, core.Similarity(g), nil)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			want := sha(canonMerges(serial))
			var bytes int64 = -1
			for _, workers := range []int{1, 4, 8} {
				prec := NewRecorder()
				par, err := SweepParallelCtx(context.Background(), g, core.Similarity(g), workers, prec)
				if err != nil {
					t.Fatalf("parallel T=%d: %v", workers, err)
				}
				if got := sha(canonMerges(par)); got != want {
					t.Fatalf("parallel T=%d hash %s, serial %s", workers, got, want)
				}
				rec := NewRecorder()
				sp, err := sweepSpilled(context.Background(), g, core.Similarity(g), workers, t.TempDir(), rec)
				if err != nil {
					t.Fatalf("spilled T=%d: %v", workers, err)
				}
				if got := sha(canonMerges(sp)); got != want {
					t.Fatalf("spilled T=%d hash %s, serial %s", workers, got, want)
				}
				by := rec.Counter(CtrSpillBytesWritten)
				if by < 1 {
					t.Fatalf("T=%d: bytes=%d, want positive", workers, by)
				}
				if bytes >= 0 && by != bytes {
					t.Fatalf("T=%d: bytes %d, want worker-invariant %d", workers, by, bytes)
				}
				bytes = by
				sorted := rec.Counter(core.CtrSweepSortedPairs)
				if want := prec.Counter(core.CtrSweepSortedPairs); sorted != want || sorted < 1 {
					t.Fatalf("T=%d: spilled sweep sorted %d pairs, in-memory %d", workers, sorted, want)
				}
			}
		})
	}
}

// TestSpilledBudgetReroute drives the facade ladder with a real 1-byte
// budget — any allocation breaches it, no fault injection involved. The
// run must reroute through the spilled sweep (spill counter up, degrade
// counter untouched), stay bitwise golden at every worker count, and leave
// the caller's spill directory empty.
func TestSpilledBudgetReroute(t *testing.T) {
	g := goldenGraph(t)
	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		rec := NewRecorder()
		// The budget measures live-heap growth from a baseline that still
		// counts unswept garbage; a collection during Phase I could then
		// free more than the pair list adds. Collect first so the baseline
		// is live data only and the retained pair list is real growth.
		runtime.GC()
		res, err := ClusterCtx(context.Background(), g, ClusterOptions{
			Workers:        workers,
			Recorder:       rec,
			MemBudgetBytes: 1,
			SpillDir:       dir,
		})
		if err != nil {
			t.Fatalf("T=%d: %v", workers, err)
		}
		if got := sha(canonMerges(res)); got != goldenClusterSHA {
			t.Fatalf("T=%d: hash %s, golden %s", workers, got, goldenClusterSHA)
		}
		if got := rec.Counter(CtrMemBudgetSpills); got != 1 {
			t.Fatalf("T=%d: %s = %d, want 1", workers, CtrMemBudgetSpills, got)
		}
		if got := rec.Counter(CtrMemBudgetDegrades); got != 0 {
			t.Fatalf("T=%d: %s = %d, want 0", workers, CtrMemBudgetDegrades, got)
		}
		if rec.Counter(CtrSpillBytesWritten) < 1 {
			t.Fatalf("T=%d: reroute recorded no spill bytes", workers)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("T=%d: %d entries left in the spill dir", workers, len(entries))
		}
	}
}
