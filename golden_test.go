package linkclust

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"linkclust/internal/core"
)

// Golden hashes for the fixed-seed word-association pipeline below. They pin
// the exact clustering output (merge stream, bit for bit) and the
// worker-invariant RunReport counters across every engine. If an intentional
// algorithm change moves them, rerun the test and update the constants from
// the failure message — any other trigger is a regression in determinism.
const (
	goldenClusterSHA  = "acd8ee08ada0f030f60c9c94cac36a65c66d1d94744f3e18fadb6a8020d86e8c"
	goldenCountersSHA = "5bec9fb0776d5c614c33b7e36c93500ef8b05a23b4a68d8d4794efadb37fe0c5"
	// goldenStreamCountersSHA pins the stream.* counters of the canonical
	// golden-graph replay (batches of 512, a snapshot every fourth batch):
	// like the engine counters above they are pure functions of the arrival
	// sequence and batching, never of the worker count.
	goldenStreamCountersSHA = "ff3610ed7784afa8a9cf0edba4a56c719b66e65a3175396f96e32076e16ad410"
)

// goldenGraph builds the fixed-seed word-association network the golden
// hashes are pinned to: the default synthetic corpus scaled down, α = 0.5,
// edge ids permuted with the default seed.
func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	cfg := DefaultSynthConfig()
	cfg.Vocab = 800
	cfg.Docs = 1500
	cfg.Topics = 8
	g, err := BuildWordGraph(SynthesizeCorpus(cfg), 0.5, AssocOptions{EdgePermSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// canonMerges serializes a fine-grained result canonically: one line per
// merge carrying the exact float bits of its similarity, then the summary
// counts. Bitwise-equal results — and only those — share a serialization.
func canonMerges(res *Result) string {
	var b strings.Builder
	for _, m := range res.Merges {
		fmt.Fprintf(&b, "%d %d %d %d %016x\n", m.Level, m.A, m.B, m.Into, math.Float64bits(m.Sim))
	}
	fmt.Fprintf(&b, "levels %d clusters %d ops %d\n", res.Levels, res.NumClusters(), res.PairsProcessed)
	return b.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// goldenInvariantCounters is the set of RunReport counters that are pure
// functions of the input graph — never of the worker count or timing. The
// stall/overlap/ns counters are deliberately absent.
var goldenInvariantCounters = []string{
	core.CtrSimilarityPairs,
	core.CtrSimilarityIncidentPairs,
	core.CtrSimilarityWedgeRows,
	core.CtrSweepPairsProcessed,
	core.CtrSweepChainRewrites,
	core.CtrSweepMerges,
	core.CtrSweepWindows,
	core.CtrSweepNoopDrops,
	core.CtrSweepFlattens,
	core.CtrSweepTailOps,
}

// canonCounters serializes the worker-invariant counters of a run report in
// sorted name order.
func canonCounters(rep *RunReport) string {
	names := append([]string(nil), goldenInvariantCounters...)
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, rep.Counters[n])
	}
	return b.String()
}

// TestGoldenClusterOutput runs the fixed corpus through every fine-grained
// engine — serial, the windowed engine at worker counts 1..8, and the
// out-of-core spilled sweep — and requires every run to hash to the
// checked-in golden value.
func TestGoldenClusterOutput(t *testing.T) {
	g := goldenGraph(t)
	serial, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(canonMerges(serial)); got != goldenClusterSHA {
		t.Fatalf("serial core.Sweep hash %s, golden %s", got, goldenClusterSHA)
	}
	for workers := 1; workers <= 8; workers++ {
		par, err := ClusterCtx(context.Background(), g, ClusterOptions{Workers: workers, Engine: EngineParallel})
		if err != nil {
			t.Fatalf("parallel T=%d: %v", workers, err)
		}
		if got := sha(canonMerges(par)); got != goldenClusterSHA {
			t.Fatalf("parallel ClusterCtx T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
	// The out-of-core sweep routes the same pair list through disk; the
	// golden pin extends to it unchanged at representative worker counts.
	for _, workers := range []int{1, 4, 8} {
		ooc, err := ClusterCtx(context.Background(), g, ClusterOptions{Workers: workers, Engine: EngineSpill, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("out-of-core T=%d: %v", workers, err)
		}
		if got := sha(canonMerges(ooc)); got != goldenClusterSHA {
			t.Fatalf("spilled ClusterCtx T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
}

// TestGoldenCounters runs the instrumented windowed engine at several worker
// counts and requires the worker-invariant counter set to hash to the
// checked-in golden value every time — the window, drop and flatten
// counters included, since the engine derives them from op counts, not
// threads. The spilled sweep feeds the same engine from disk, so its run
// must report the identical set.
func TestGoldenCounters(t *testing.T) {
	g := goldenGraph(t)
	for _, opts := range []ClusterOptions{
		{Workers: 1, Engine: EngineParallel},
		{Workers: 2, Engine: EngineParallel},
		{Workers: 4, Engine: EngineParallel},
		{Workers: 8, Engine: EngineParallel},
		{Workers: 4, Engine: EngineSpill, SpillDir: t.TempDir()},
	} {
		opts.Recorder = NewRecorder()
		if _, err := ClusterCtx(context.Background(), g, opts); err != nil {
			t.Fatalf("%s T=%d: %v", opts.Engine, opts.Workers, err)
		}
		canon := canonCounters(opts.Recorder.Report())
		if got := sha(canon); got != goldenCountersSHA {
			t.Fatalf("%s T=%d counters hash %s, golden %s\ncounters:\n%s",
				opts.Engine, opts.Workers, got, goldenCountersSHA, canon)
		}
	}
}

// TestGoldenEngine extends the golden pin to the explicit engine selector:
// every ClusterOptions.Engine value (auto included) at several worker counts
// must hash to the same golden value as the serial pipeline — engine choice
// affects speed only, never output.
func TestGoldenEngine(t *testing.T) {
	g := goldenGraph(t)
	for _, engine := range []string{EngineAuto, EngineSerial, EngineParallel, EngineSpill} {
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := ClusterCtx(context.Background(), g,
				ClusterOptions{Workers: workers, Engine: engine, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatalf("engine=%s T=%d: %v", engine, workers, err)
			}
			if got := sha(canonMerges(res)); got != goldenClusterSHA {
				t.Fatalf("engine=%s T=%d hash %s, golden %s", engine, workers, got, goldenClusterSHA)
			}
		}
	}
	if _, err := ClusterCtx(context.Background(), g, ClusterOptions{Engine: "warp"}); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

// replayGoldenStream feeds the golden graph's edges, in id order, into a
// stream engine in batches of 512 with a snapshot every fourth batch — the
// intermediate snapshots sweep the spliced list mid-stream — and returns the
// final snapshot.
func replayGoldenStream(t *testing.T, eng *Stream, arr []Arrival) *Result {
	t.Helper()
	const batch = 512
	step := 0
	for lo := 0; lo < len(arr); lo += batch {
		hi := min(lo+batch, len(arr))
		if err := eng.IngestBatch(arr[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if step++; step%4 == 0 {
			if _, err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenStreamReplay extends the golden pin to the incremental engine:
// replaying the golden graph as an edge stream with interleaved snapshots
// must land on the batch pipeline's exact merge stream at every worker
// count — the differential contract against the checked-in hash rather
// than an in-process oracle.
func TestGoldenStreamReplay(t *testing.T) {
	g := goldenGraph(t)
	arr := streamArrivals(g)
	for _, workers := range []int{1, 4, 8} {
		eng, err := NewStream(StreamOptions{Workers: workers, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		res := replayGoldenStream(t, eng, arr)
		if got := sha(canonMerges(res)); got != goldenClusterSHA {
			t.Fatalf("stream replay T=%d hash %s, golden %s", workers, got, goldenClusterSHA)
		}
	}
}

// canonStreamCounters serializes the stream.* counters in sorted name order.
func canonStreamCounters(rep *RunReport) string {
	names := []string{CtrStreamAffectedRows, CtrStreamReplayedOps, CtrStreamCompactions, CtrStreamBatches}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, rep.Counters[n])
	}
	return b.String()
}

// TestGoldenStreamCounters pins the stream.* counters of the canonical
// replay: affected rows, replayed ops, compactions (never recorded, so 0),
// and batches all derive from the arrival sequence and op counts, so every
// worker count must serialize to the same checked-in hash.
func TestGoldenStreamCounters(t *testing.T) {
	g := goldenGraph(t)
	arr := streamArrivals(g)
	for _, workers := range []int{1, 4, 8} {
		rec := NewRecorder()
		eng, err := NewStream(StreamOptions{Workers: workers, Recorder: rec, MaxVertices: g.NumVertices()})
		if err != nil {
			t.Fatal(err)
		}
		replayGoldenStream(t, eng, arr)
		canon := canonStreamCounters(rec.Report())
		if got := sha(canon); got != goldenStreamCountersSHA {
			t.Fatalf("T=%d stream counters hash %s, golden %s\ncounters:\n%s",
				workers, got, goldenStreamCountersSHA, canon)
		}
	}
}
