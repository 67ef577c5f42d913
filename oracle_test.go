package linkclust

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/planted"
	"linkclust/internal/rng"
	"linkclust/internal/testkit"
)

// The facade's differential oracle. Serial core.Sweep is the one reference,
// and the golden SHAs pin it on the golden graph. Every way the facade can
// produce a fine-grained merge stream is one facadePath, and every graph the
// root differential tests cluster is a facadeFamily. A cell is one (path,
// family, worker count); runFacadeOracle holds each cell to serial Sweep's
// merge stream, to the golden hashes on the golden graph, and to the
// worker-invariant counters of the path's own first run and of every other
// path of its kind. The golden and spilled tests are selections of these
// cells, and TestClusterOracle runs the cells no selection runs. The core
// package's oracle (internal/core/oracle_test.go) covers the engine paths
// below the facade.

// facadePath is one way the facade clusters a graph: from the graph itself,
// Phase I included, at a worker count, recording into rec. It may check
// what only its path promises and fail t.
type facadePath struct {
	name string
	// stream marks the stream replay, whose counters are the stream.* set
	// pinned by goldenStreamCountersSHA. Every other path records the
	// worker-invariant engine set pinned by goldenCountersSHA, how far it
	// sorted the list and how many pairs it retired as sealed.
	stream bool
	run    func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error)
}

// clusterPath is ClusterCtx with the named engine.
func clusterPath(engine string) facadePath {
	return facadePath{name: "cluster-" + engine,
		run: func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error) {
			return ClusterCtx(context.Background(), g,
				ClusterOptions{Workers: workers, Engine: engine, SpillDir: t.TempDir(), Recorder: rec})
		}}
}

var (
	// pathSweepInMemory is Phase I then the facade's in-memory sweep.
	pathSweepInMemory = facadePath{name: "sweep-in-memory",
		run: func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error) {
			pl, err := SimilarityCtx(context.Background(), g, workers, rec)
			if err != nil {
				return nil, err
			}
			return SweepParallelCtx(context.Background(), g, pl, workers, rec)
		}}

	// pathSweepSpilled is Phase I then the spill engine through the
	// facade's engine dispatch; it must write bytes and leave its spill
	// directory empty.
	pathSweepSpilled = facadePath{name: "sweep-spilled",
		run: func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error) {
			pl, err := SimilarityCtx(context.Background(), g, workers, rec)
			if err != nil {
				return nil, err
			}
			dir := t.TempDir()
			res, err := sweepSpilled(context.Background(), g, pl, workers, dir, rec)
			testkit.RequireEmptyDir(t, dir)
			if err == nil && rec.Counter(CtrSpillBytesWritten) < 1 {
				t.Fatalf("spilled T=%d: no spill bytes recorded", workers)
			}
			return res, err
		}}

	// pathBudgetReroute drives the facade ladder with budgets at the pair
	// list's size, no fault injection involved. A budget of PairList.Bytes
	// must keep the run in memory; one byte less must reroute it through
	// the spilled sweep (spill counter up, degrade counter untouched) to
	// the same merge stream, leaving the caller's spill directory empty.
	pathBudgetReroute = facadePath{name: "budget-reroute",
		run: func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error) {
			size := core.Similarity(g).Bytes()
			dir := t.TempDir()
			fitRec := NewRecorder()
			fit, err := ClusterCtx(context.Background(), g, ClusterOptions{
				Workers: workers, Recorder: fitRec, MemBudgetBytes: size, SpillDir: dir,
			})
			if err != nil {
				return nil, err
			}
			if got := fitRec.Counter(CtrMemBudgetSpills) + fitRec.Counter(CtrSpillBytesWritten); got != 0 {
				t.Fatalf("budget = list bytes T=%d: spilled (counters %d), want in memory", workers, got)
			}
			res, err := ClusterCtx(context.Background(), g, ClusterOptions{
				Workers: workers, Recorder: rec, MemBudgetBytes: size - 1, SpillDir: dir,
			})
			if err != nil {
				return nil, err
			}
			if got := rec.Counter(CtrMemBudgetSpills); got != 1 {
				t.Fatalf("reroute T=%d: %s = %d, want 1", workers, CtrMemBudgetSpills, got)
			}
			if got := rec.Counter(CtrMemBudgetDegrades); got != 0 {
				t.Fatalf("reroute T=%d: %s = %d, want 0", workers, CtrMemBudgetDegrades, got)
			}
			if rec.Counter(CtrSpillBytesWritten) < 1 {
				t.Fatalf("reroute T=%d: no spill bytes recorded", workers)
			}
			if sha(canonMerges(fit)) != sha(canonMerges(res)) {
				t.Fatalf("reroute T=%d: spilled stream differs from the in-memory one", workers)
			}
			testkit.RequireEmptyDir(t, dir)
			return res, nil
		}}

	// pathStream replays the graph's edges as a stream, with interleaved
	// snapshots (replayGoldenStream).
	pathStream = facadePath{name: "stream", stream: true,
		run: func(t *testing.T, g *Graph, workers int, rec *Recorder) (*Result, error) {
			eng, err := NewStream(StreamOptions{Workers: workers, Recorder: rec, MaxVertices: g.NumVertices()})
			if err != nil {
				return nil, err
			}
			return replayGoldenStream(t, eng, streamArrivals(g)), nil
		}}
)

// enginePaths is clusterPath for every engine name ClusterCtx accepts, the
// retired aliases included.
func enginePaths() []facadePath {
	var ps []facadePath
	for _, e := range []string{EngineAuto, EngineSerial, EngineParallel, EngineSpill} {
		ps = append(ps, clusterPath(e))
	}
	return ps
}

// facadeFamily is one graph the facade oracle clusters. wide records the
// radix-bucket regime its pair list lands in: the sort cursor narrows to
// 8-bit buckets below 1<<13 incident pairs and uses 16-bit buckets above
// (see core/buckets.go), and the families cover both. golden marks the
// graph the golden SHAs are pinned to.
type facadeFamily struct {
	name   string
	g      *Graph
	wide   bool
	golden bool
}

// goldenFamily is the golden graph alone.
func goldenFamily(t *testing.T) []facadeFamily {
	return []facadeFamily{{name: "word-assoc", g: goldenGraph(t), wide: true, golden: true}}
}

// facadeFamilies is every family: random graphs in both bucket regimes,
// planted communities, and the golden word graph.
func facadeFamilies(t *testing.T) []facadeFamily {
	return append(syntheticFamilies(t), goldenFamily(t)...)
}

// syntheticFamilies is every family but the golden graph.
func syntheticFamilies(t *testing.T) []facadeFamily {
	t.Helper()
	pcfg := planted.DefaultConfig()
	pcfg.Nodes = 150
	pcfg.Communities = 6
	bench, err := planted.Generate(pcfg)
	if err != nil {
		t.Fatalf("planted: %v", err)
	}
	return []facadeFamily{
		{name: "random-narrow", g: graph.ErdosRenyi(40, 0.15, rng.New(11))},
		{name: "random-wide", g: graph.ErdosRenyi(300, 0.06, rng.New(12)), wide: true},
		{name: "planted", g: bench.Graph, wide: true},
	}
}

// facadeCells is one selection of cells: paths × worker counts.
type facadeCells struct {
	workers []int
	paths   []facadePath
}

func cells(workers []int, paths ...facadePath) facadeCells {
	return facadeCells{workers: workers, paths: paths}
}

// runFacadeOracle runs and checks the selected cells on every family, one
// subtest per family.
func runFacadeOracle(t *testing.T, families []facadeFamily, sel ...facadeCells) {
	t.Helper()
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			if wide := core.Similarity(f.g).NumIncidentPairs() >= 1<<13; wide != f.wide {
				t.Fatalf("family sized for wide=%v buckets but NumIncidentPairs lands in wide=%v", f.wide, wide)
			}
			serial, err := core.Sweep(f.g, core.Similarity(f.g))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			want := sha(canonMerges(serial))
			if f.golden && want != goldenClusterSHA {
				t.Fatalf("serial core.Sweep hash %s, golden %s", want, goldenClusterSHA)
			}
			kind := map[bool]string{} // stream → the first run's counters of that kind
			for _, s := range sel {
				for _, p := range s.paths {
					var first string
					for _, w := range s.workers {
						label := fmt.Sprintf("%s T=%d", p.name, w)
						rec := NewRecorder()
						res, err := p.run(t, f.g, w, rec)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if got := sha(canonMerges(res)); got != want {
							t.Fatalf("%s: hash %s, serial %s", label, got, want)
						}
						own, shared := cellCounters(t, p, rec.Report(), f.golden, label)
						if first == "" {
							first = own
						} else if own != first {
							t.Fatalf("%s: counters\n%s\nwant the path's first run's\n%s", label, own, first)
						}
						if k, ok := kind[p.stream]; !ok {
							kind[p.stream] = shared
						} else if shared != k {
							t.Fatalf("%s: counters\n%s\nwant every other path's\n%s", label, shared, k)
						}
					}
				}
			}
		})
	}
}

// cellCounters serializes a run's worker-invariant counters: shared is what
// every path of its kind must agree on, own adds what only this path must
// keep across worker counts (the spill bytes). On the golden graph the
// canonical set must hash to its golden value.
func cellCounters(t *testing.T, p facadePath, rep *RunReport, golden bool, label string) (own, shared string) {
	t.Helper()
	canon, pin := canonCounters(rep), goldenCountersSHA
	if p.stream {
		canon, pin = canonStreamCounters(rep), goldenStreamCountersSHA
	}
	if golden {
		if got := sha(canon); got != pin {
			t.Fatalf("%s: counters hash %s, golden %s\ncounters:\n%s", label, got, pin, canon)
		}
	}
	if p.stream {
		return canon, canon
	}
	// Phase I's list arrives unsorted, so every engine sorts at least the
	// prefix it reads.
	if rep.Counters[core.CtrSweepSortedPairs] < 1 {
		t.Fatalf("%s: %s = 0: the list was never sorted", label, core.CtrSweepSortedPairs)
	}
	shared = canon + fmt.Sprintf("%s=%d\n%s=%d\n", core.CtrSweepSortedPairs, rep.Counters[core.CtrSweepSortedPairs],
		core.CtrSweepSealedPairs, rep.Counters[core.CtrSweepSealedPairs])
	return shared + fmt.Sprintf("%s=%d\n", CtrSpillBytesWritten, rep.Counters[CtrSpillBytesWritten]), shared
}

// canonCounters serializes the worker-invariant counters of a run report in
// sorted name order.
func canonCounters(rep *RunReport) string {
	return canonNamed(rep, core.InvariantCounters)
}

// canonStreamCounters serializes the stream.* counters in sorted name order.
func canonStreamCounters(rep *RunReport) string {
	return canonNamed(rep, []string{CtrStreamAffectedRows, CtrStreamReplayedOps, CtrStreamCompactions, CtrStreamBatches})
}

func canonNamed(rep *RunReport, names []string) string {
	names = slices.Sorted(slices.Values(names))
	var b []byte
	for _, n := range names {
		b = fmt.Appendf(b, "%s=%d\n", n, rep.Counters[n])
	}
	return string(b)
}

// TestClusterOracle runs, at one worker and at four, the cells no selection
// runs, so that over the suite every path clusters every family: the golden
// selections cover every path on the golden graph and
// TestSpilledDifferentialMatrix the two sweeps everywhere, which leaves
// every engine name, the budget reroute and the stream replay on the
// synthetic families. A new path registers here.
func TestClusterOracle(t *testing.T) {
	runFacadeOracle(t, syntheticFamilies(t), cells([]int{1, 4}, append(enginePaths(), pathBudgetReroute, pathStream)...))
}
