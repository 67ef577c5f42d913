package linkclust

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
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

// requireGolden fails t unless res's merge stream hashes to goldenClusterSHA.
func requireGolden(t *testing.T, label string, res *Result) {
	t.Helper()
	if got := sha(canonMerges(res)); got != goldenClusterSHA {
		t.Fatalf("%s: hash %s, golden %s", label, got, goldenClusterSHA)
	}
}

// The golden tests are selections of the facade oracle's cells on the
// golden graph (oracle_test.go): every cell's merge stream must hash to
// goldenClusterSHA, and its worker-invariant counters to goldenCountersSHA
// (goldenStreamCountersSHA for the stream replay).

// TestGoldenClusterOutput runs the fixed corpus through every fine-grained
// engine — serial, the windowed engine at worker counts 1..8, and the
// out-of-core spilled sweep — and requires every run to hash to the
// checked-in golden value.
func TestGoldenClusterOutput(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t),
		cells([]int{1, 2, 3, 4, 5, 6, 7, 8}, clusterPath(EngineParallel)),
		cells([]int{1, 4, 8}, clusterPath(EngineSpill)))
}

// TestGoldenCounters runs the instrumented windowed engine at several worker
// counts and requires the worker-invariant counter set to hash to the
// checked-in golden value every time — the window, drop and flatten
// counters included, since the engine derives them from op counts, not
// threads. The spilled sweep feeds the same engine from disk, so its run
// must report the identical set.
func TestGoldenCounters(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t),
		cells([]int{1, 2, 4, 8}, clusterPath(EngineParallel)),
		cells([]int{4}, clusterPath(EngineSpill)))
}

// TestGoldenEngine extends the golden pin to the explicit engine selector:
// every ClusterOptions.Engine value (auto included) at several worker counts
// must hash to the same golden value as the serial pipeline — engine choice
// affects speed only, never output.
func TestGoldenEngine(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t), cells([]int{1, 2, 4, 8}, enginePaths()...))
	if _, err := ClusterCtx(context.Background(), goldenGraph(t), ClusterOptions{Engine: "warp"}); err == nil {
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
// count, and its stream.* counters — affected rows, replayed ops,
// compactions (never recorded, so 0) and batches, all derived from the
// arrival sequence and op counts — on goldenStreamCountersSHA.
func TestGoldenStreamReplay(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t), cells([]int{1, 4, 8}, pathStream))
}

// TestGoldenStreamCounters pins the replay's stream.* counters at a worker
// count TestGoldenStreamReplay does not run: every cell of the stream path
// on the golden graph must hash them to goldenStreamCountersSHA.
func TestGoldenStreamCounters(t *testing.T) {
	runFacadeOracle(t, goldenFamily(t), cells([]int{2}, pathStream))
}
