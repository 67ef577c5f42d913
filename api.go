// Package linkclust is an efficient link-clustering library for multi-core
// machines, reproducing Guanhua Yan, "Improving Efficiency of Link
// Clustering on Multi-Core Machines" (ICDCS 2017).
//
// Link clustering (Ahn, Bagrow & Lehmann, Nature 2010) groups the *edges*
// of a graph by the Tanimoto similarity of incident edges, revealing
// overlapping and hierarchical community structure. This package provides
// the paper's three acceleration axes behind one facade:
//
//   - Algorithm — the two-phase sweep: SimilarityCtx (Algorithm 1)
//     computes incident-pair similarities in three graph passes; SweepCtx
//     (Algorithm 2) replays them through the chain array C in
//     O(|V| + K1·log K1 + √K2·|E|) time, versus O(|E|²) for classic
//     single-linkage (SLINK / next-best-merge). ClusterCtx runs both.
//   - Modeling — CoarseClusterCtx produces coarse-grained dendrograms whose
//     per-level merge rate is bounded by γ, stopping below φ clusters, with
//     rollback-based chunk-size estimation.
//   - Parallelization — ClusterOptions.Workers and CoarseParams.Workers run
//     both phases multi-threaded (Section VI), including the corrected
//     replica-merge scheme for array C and a windowed engine
//     (SweepParallelCtx) for the fine-grained sweep whose merge stream is
//     bitwise identical to serial at any worker count.
//
// Every phase has one entry point. Each takes a context and an optional
// *Recorder (directly, or as ClusterOptions.Recorder); nil records nothing.
//
// Dendrogram analysis (cuts, partition density, overlapping communities)
// and the paper's word-association-network pipeline (tokenizing, stemming,
// PMI edge weights) are included. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduced evaluation.
//
// Quick start:
//
//	g := linkclust.NewGraphBuilder(4)
//	g.MustAddEdge(0, 1, 1)
//	// ... add edges ...
//	graph := g.Build(nil)
//	res, err := linkclust.ClusterCtx(context.Background(), graph, linkclust.ClusterOptions{Workers: 4})
//	d := linkclust.NewDendrogram(res)
//	theta, density, labels := linkclust.BestCut(graph, d)
//	comms := linkclust.Communities(graph, labels)
package linkclust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"linkclust/internal/assoc"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/dendro"
	"linkclust/internal/graph"
	"linkclust/internal/metrics"
	"linkclust/internal/obs"
	"linkclust/internal/onmi"
	"linkclust/internal/par"
	"linkclust/internal/planted"
	"linkclust/internal/stream"
)

// Graph and corpus building blocks.
type (
	// Graph is an immutable weighted undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected weighted edge with canonical order U < V.
	Edge = graph.Edge
	// GraphStats bundles |V|, |E|, density, and the K1/K2/K3 quantities
	// of the paper's complexity analysis.
	GraphStats = graph.Stats

	// Corpus is an ordered collection of processed documents.
	Corpus = corpus.Corpus
	// SynthConfig parameterizes the synthetic tweet generator.
	SynthConfig = corpus.SynthConfig
	// AssocOptions tunes word-association-network construction.
	AssocOptions = assoc.Options
)

// Clustering types.
type (
	// Pair is one vertex pair of map M with its similarity and its
	// common-neighbor count N (Algorithm 1 output); the sweeps regenerate
	// the common neighbors from the graph.
	Pair = core.Pair
	// PairList is the materialized map M; after Sort it is list L.
	PairList = core.PairList
	// Merge is one dendrogram merge event.
	Merge = core.Merge
	// Result is the output of the fine-grained sweep.
	Result = core.Result
	// Chain is the array C with the F(i)/MERGE primitives.
	Chain = core.Chain

	// CoarseParams configures coarse-grained clustering (γ, φ, δ0, η0,
	// worker count).
	CoarseParams = coarse.Params
	// CoarseResult is the output of a coarse-grained sweep.
	CoarseResult = coarse.Result
	// CoarseEpoch records one epoch of the coarse-grained mode machine.
	CoarseEpoch = coarse.Epoch

	// Dendrogram supports cuts and per-level queries over merge streams.
	Dendrogram = dendro.Dendrogram
	// Community is one link community with its edges and induced nodes.
	Community = dendro.Community
)

// NewGraphBuilder returns a builder for a graph with n unlabeled vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewLabeledGraphBuilder returns a builder whose vertices carry labels.
func NewLabeledGraphBuilder(labels []string) *GraphBuilder {
	return graph.NewLabeledBuilder(labels)
}

// ComputeStats returns the structural statistics of g, including K1 and K2.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// ReadGraph parses a graph in the library's text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in the library's text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// WriteDOT serializes a graph in Graphviz DOT format; edgeColor (optional)
// maps each edge id to a color class, the usual way to draw link
// communities.
func WriteDOT(w io.Writer, g *Graph, edgeColor func(edge int32) int32) error {
	return graph.WriteDOT(w, g, edgeColor)
}

// Observability. Every pipeline entry point accepts an optional *Recorder
// (nil disables instrumentation at no measurable cost); a populated
// Recorder yields a RunReport with per-phase wall times, named counters
// (pairs processed, chain rewrites, replica merges), and memory deltas.
type (
	// Recorder collects phase timers and counters for one pipeline run.
	// All methods are safe on a nil receiver, which disables recording.
	Recorder = obs.Recorder
	// RunReport is the JSON-serializable summary of an instrumented run.
	RunReport = obs.RunReport
	// PhaseReport is one aggregated phase of a RunReport.
	PhaseReport = obs.PhaseReport
)

// NewRecorder returns a Recorder with the run clock started.
func NewRecorder() *Recorder { return obs.New() }

// WorkerPanicError is the typed error surfaced by the context-aware entry
// points when a goroutine inside a worker pool panics: the pool recovers the
// panic, asks its siblings to stop, drains, and the entry point returns this
// error (carrying the worker index and stack) instead of crashing the
// process. Match it with errors.As.
type WorkerPanicError = par.WorkerPanicError

// CtrMemBudgetDegrades counts runs whose pair list was over the memory
// budget and that degraded from fine-grained to coarse-grained clustering
// because the spill attempt itself failed at the disk
// (see ClusterOptions.MemBudgetBytes).
const CtrMemBudgetDegrades = "cluster.mem_budget_degrades"

// CtrMemBudgetSpills counts runs whose pair list was over the memory budget
// and that were admitted to the out-of-core spilled sweep instead — the
// first rung of the budget escalation ladder. A spilled run's output is
// bitwise identical to the in-memory engines', so unlike a degrade this is
// invisible to the result.
const CtrMemBudgetSpills = "cluster.mem_budget_spills"

// CtrSpillBytesWritten is the bytes the out-of-core sweep wrote to its
// spill file; worker-invariant (a pure function of the pair list).
const CtrSpillBytesWritten = core.CtrSpillBytesWritten

// ClusterOptions configures an instrumented pipeline run.
type ClusterOptions struct {
	// Workers sets the worker count for the initialization phase (and the
	// coarse sweeping phase, where applicable). Like every parallel entry
	// point, the value is normalized: below 1 runs serially, above
	// max(runtime.GOMAXPROCS(0), runtime.NumCPU()) is clamped to that cap.
	Workers int
	// Recorder, when non-nil, collects phase timers and counters for the
	// run; call Recorder.Report to obtain the RunReport.
	Recorder *Recorder
	// Engine selects the sweep: EngineSpill runs it out of core, and every
	// other name — EngineParallel, the empty name, and the retired aliases
	// EngineAuto and EngineSerial — runs the in-memory windowed engine
	// (SweepParallelCtx). Both are bitwise identical to serial SweepCtx —
	// Engine affects memory and speed only. The resolved engine is recorded
	// on the Recorder's run report as meta key "sweep_engine".
	Engine string
	// MemBudgetBytes, when positive, bounds the pair list a sweep may hold
	// in memory: pair-list bytes above the budget choose the spill rung.
	// When the list's PairList.Bytes exceeds it (see OverBudget), the run
	// admits the list to disk and runs the out-of-core sweep (EngineSpill,
	// recorded under CtrMemBudgetSpills), whose output is bitwise identical
	// to the in-memory engines. Only if spilling itself fails at the disk —
	// file creation or a write error, which leaves the pair list intact —
	// does the run degrade to coarse-grained clustering
	// (DefaultCoarseParams) over that list, recorded under
	// CtrMemBudgetDegrades. The rung is decided from the list's size before
	// the sweep allocates, so it is the same on every host and run; zero
	// disables the budget.
	MemBudgetBytes int64
	// SpillDir is the parent directory for the out-of-core sweep's private
	// spill file (EngineSpill or the budget admission path); empty means
	// os.TempDir(). Each run spills into its own file and removes it on
	// every exit path.
	SpillDir string
}

// OverBudget reports whether pl's bytes exceed a positive MemBudgetBytes:
// the one rule that sends a sweep to the spill rung.
func (o ClusterOptions) OverBudget(pl *PairList) bool {
	return o.MemBudgetBytes > 0 && pl.Bytes() > o.MemBudgetBytes
}

// SimilarityCtx runs the initialization phase (Algorithm 1) with the
// wedge-major (Gustavson) kernel, producing the similarity-annotated pair
// list. Contributions are grouped by the smaller endpoint of each map-M key
// into a per-row sparse accumulator, avoiding the global hash map of the
// paper's reference implementation; with workers > 1, rows partition
// disjointly across workers (count-then-fill into a CSR layout, no merge
// phase). The output is bitwise identical for any worker count. workers is
// normalized: values below 2 (after clamping) run serially, values above
// max(runtime.GOMAXPROCS(0), runtime.NumCPU()) are clamped to that cap.
//
// The context is checked at every row-block claim of the wedge kernel, a
// worker panic surfaces as a *WorkerPanicError instead of crashing, and rec
// (optional) receives per-pass phase timers and the K1/K2 counters.
func SimilarityCtx(ctx context.Context, g *Graph, workers int, rec *Recorder) (*PairList, error) {
	return core.SimilarityCtx(ctx, g, workers, rec)
}

// SweepCtx runs the sweeping phase (Algorithm 2) serially over a pair list
// built from the same graph, sorting it in place. It is the paper's
// reference and the oracle every engine is tested against; no engine name
// selects it. The context is checked once per 8192 incident-edge operations
// (the same window size as the windowed engine), bounding cancel latency by
// one window.
func SweepCtx(ctx context.Context, g *Graph, pl *PairList, rec *Recorder) (*Result, error) {
	return core.SweepCtx(ctx, g, pl, rec)
}

// SweepParallelCtx runs the sweeping phase with the windowed engine: list L
// is cut into merge-batch windows; workers resolve each window's ops and drop
// those already joined before it, and the survivors are replayed serially
// in op order over one chain. An unsorted pair list is sorted in
// place only as far as the sweep reads it: after the merges span the graph
// the rest is retired unsorted, so pl.Pairs is left in list-L order only
// through the closing similarity bucket (core.SweepResumeCtx has the
// details). workers is normalized exactly as in SimilarityCtx. (The paper
// parallelizes only the coarse-grained sweep; this engine goes beyond it
// while reproducing the serial result exactly.) Cancellation is checked at
// every op-count window cut and inside every bucket sort; on
// cancellation every worker pool drains before context.Canceled (or the
// context's error) is returned, so no goroutine outlives the call. When ctx
// never cancels, the merge stream is bitwise identical to SweepCtx for any
// worker count.
func SweepParallelCtx(ctx context.Context, g *Graph, pl *PairList, workers int, rec *Recorder) (*Result, error) {
	return core.SweepParallelCtx(ctx, g, pl, workers, rec)
}

// ClusterCtx is the cancellable, fault-tolerant end-to-end pipeline:
// SimilarityCtx followed by RunSweep, which runs the sweep engine opts
// selects or, when the pair list is over opts.MemBudgetBytes, the
// out-of-core sweep (or, if spilling fails at the disk, coarse-grained
// clustering; see ClusterOptions). Cancellation is honored within one
// scheduling window at every stage; worker panics surface as
// *WorkerPanicError; and unless ctx cancels or a spill fails, the result is
// bitwise identical to a serial SweepCtx over SimilarityCtx's output, for
// every engine, budget and worker count. The pair list is internal; the
// in-memory engine sorts only its closing prefix.
func ClusterCtx(ctx context.Context, g *Graph, opts ClusterOptions) (*Result, error) {
	pl, err := core.SimilarityCtx(ctx, g, opts.Workers, opts.Recorder)
	if err != nil {
		return nil, err
	}
	res, _, err := RunSweep(ctx, g, pl, opts)
	return res, err
}

// Sweep engine names accepted by ClusterOptions.Engine, the linkclust
// -engine flag, and the daemon's "engine" option. EngineSpill is the
// out-of-core sweep; the other three name the in-memory windowed engine
// (EngineAuto and EngineSerial are retired aliases kept so existing scripts,
// options and journals stay valid). Both sweeps yield a bitwise-identical
// merge stream.
const (
	EngineAuto     = core.SweepEngineAuto
	EngineSerial   = core.SweepEngineSerial
	EngineParallel = core.SweepEngineParallel
	EngineSpill    = core.SweepEngineSpill
)

// engineNames lists the valid engine names in the order errors quote them.
var engineNames = []string{EngineAuto, EngineSerial, EngineParallel, EngineSpill}

// CheckEngine returns nil when name is a sweep engine ClusterOptions.Engine
// accepts — the empty name included — and otherwise an error quoting name
// and listing every valid engine.
func CheckEngine(name string) error {
	if name == "" || slices.Contains(engineNames, name) {
		return nil
	}
	return fmt.Errorf("unknown sweep engine %q (want %s)", name, strings.Join(engineNames, ", "))
}

// ResolveEngine maps an engine name to the engine that will run a sweep:
// EngineSpill for EngineSpill, EngineParallel for every other valid name.
func ResolveEngine(name string) (string, error) {
	if err := CheckEngine(name); err != nil {
		return "", err
	}
	if name == EngineSpill {
		return EngineSpill, nil
	}
	return EngineParallel, nil
}

// SweepRun reports which path RunSweep took to its result.
type SweepRun struct {
	// Engine is the resolved engine that ran; EngineSpill for a run over
	// its memory budget, whichever rung produced the result.
	Engine string
	// Spilled is set when the out-of-core sweep produced the result, by
	// explicit EngineSpill or by budget admission. A spilled merge stream is
	// bitwise identical to an in-memory one.
	Spilled bool
	// Degraded is set when the result is coarse-grained: the run was over
	// its memory budget and spilling then failed at the disk.
	Degraded bool
}

// RunSweep is the sweeping phase of ClusterCtx over a pair list the caller
// already holds (from SimilarityCtx, a cache, or a file). It runs the engine
// ResolveEngine picks from opts.Engine unless opts.OverBudget(pl): pair-list
// bytes above opts.MemBudgetBytes choose the spill rung, the out-of-core
// sweep (recorded under CtrMemBudgetSpills), and only if that fails during
// its write phase with the pair list intact does the run degrade to
// coarse-grained clustering with DefaultCoarseParams (recorded under
// CtrMemBudgetDegrades). Cancellation, worker panics, and read-phase spill
// failures are terminal. The resolved engine is recorded on opts.Recorder
// as meta key "sweep_engine".
//
// Afterwards pl is not necessarily sorted: the in-memory engine and a coarse
// degrade sort an unsorted list only as far as they read it (see
// SweepParallelCtx), and the out-of-core sweep consumes it; callers that
// need list L afterwards must Sort it.
func RunSweep(ctx context.Context, g *Graph, pl *PairList, opts ClusterOptions) (*Result, SweepRun, error) {
	engine, err := ResolveEngine(opts.Engine)
	if err != nil {
		return nil, SweepRun{}, err
	}
	overBudget := opts.OverBudget(pl)
	if overBudget {
		opts.Recorder.Add(CtrMemBudgetSpills, 1)
		engine = EngineSpill
	}
	opts.Recorder.SetMeta("sweep_engine", engine)
	run := SweepRun{Engine: engine}
	var res *Result
	if engine == EngineParallel {
		res, err = core.SweepParallelCtx(ctx, g, pl, opts.Workers, opts.Recorder)
	} else {
		res, err = core.SweepSpilledOpts(ctx, g, pl, opts.Workers,
			core.SpillOptions{Dir: opts.SpillDir}, opts.Recorder)
		run.Spilled = err == nil
		var wpe *par.WorkerPanicError
		if err != nil && overBudget && ctx.Err() == nil && pl.Pairs != nil && !errors.As(err, &wpe) {
			// A write-phase disk failure left the pair list intact: degrade.
			opts.Recorder.Add(CtrMemBudgetDegrades, 1)
			params := coarse.DefaultParams()
			params.Workers = opts.Workers
			var cres *coarse.Result
			if cres, err = coarse.SweepCtx(ctx, g, pl, params, opts.Recorder); err == nil {
				res, run.Degraded = coarseToResult(cres), true
			}
		}
	}
	if err != nil {
		return nil, SweepRun{}, err
	}
	return res, run, nil
}

// Incremental streaming clustering. A Stream ingests edge arrivals and keeps
// the clustering current: only the similarity rows an arrival can affect are
// recomputed and spliced into a maintained sorted pair list, and each snapshot
// is one sweep of that list. Snapshots are bitwise identical to a batch
// ClusterCtx run on the accumulated graph — see internal/stream and DESIGN.md
// §9.
type (
	// Stream is the incremental clustering engine. All methods are safe for
	// concurrent use; a Snapshot observes all or none of a concurrent ingest.
	Stream = stream.Engine
	// StreamOptions configures a Stream (workers, recorder, vertex bound).
	// The zero value is usable.
	StreamOptions = stream.Options
	// Arrival is one streamed edge: endpoints and weight, validated exactly
	// like GraphBuilder.AddEdge; a repeated pair overwrites the weight.
	Arrival = stream.Arrival
)

// Stream counter names recorded on StreamOptions.Recorder. All are pure
// functions of the arrival sequence and batching — never of the worker count —
// so they join the golden worker-invariant set.
const (
	CtrStreamAffectedRows = stream.CtrAffectedRows
	// CtrStreamReplayedOps counts the ops snapshots sweep: the list's K2
	// per snapshot.
	CtrStreamReplayedOps = stream.CtrReplayedOps
	// CtrStreamCompactions is never recorded (snapshots have no batch
	// fallback). It stays exported only because the benchmark reads it; the
	// next benchmark change retires it.
	CtrStreamCompactions = stream.CtrCompactions
	CtrStreamBatches     = stream.CtrBatches
)

// NewStream returns an incremental clustering engine. Feed it with
// Stream.Ingest / Stream.IngestBatch (or their Ctx variants, which cancel at
// the established window points) and read the maintained clustering with
// Stream.Snapshot.
func NewStream(opt StreamOptions) (*Stream, error) { return stream.New(opt) }

// CoarseClusterCtx runs Algorithm 1 (parallel when params.Workers > 1)
// followed by the coarse-grained sweeping algorithm of Section V. A nonzero
// opts.Workers overrides params.Workers; either is normalized exactly as in
// SimilarityCtx. The context is checked at every chunk boundary of the
// coarse sweep (and at every row-block claim of the initialization),
// bounding cancel latency by one chunk.
func CoarseClusterCtx(ctx context.Context, g *Graph, params CoarseParams, opts ClusterOptions) (*CoarseResult, error) {
	if opts.Workers != 0 {
		params.Workers = opts.Workers
	}
	pl, err := core.SimilarityCtx(ctx, g, params.Workers, opts.Recorder)
	if err != nil {
		return nil, err
	}
	return coarse.SweepCtx(ctx, g, pl, params, opts.Recorder)
}

// coarseToResult adapts a coarse-grained result to the fine-grained Result
// shape for the memory-budget degrade path: the merge stream, final chain,
// level counter, and processed-op count carry over directly. Coarse levels
// group many merges (one level per chunk), so dendrogram cuts behave
// identically but per-merge level granularity is coarser than Sweep's.
func coarseToResult(cres *coarse.Result) *core.Result {
	return &core.Result{
		Merges:         cres.Merges,
		Chain:          cres.Chain,
		Levels:         cres.Levels,
		PairsProcessed: cres.OpsProcessed,
	}
}

// DefaultCoarseParams returns the paper's experimental parameters
// (γ=2, φ=100, δ0=1000, η0=8, serial).
func DefaultCoarseParams() CoarseParams { return coarse.DefaultParams() }

// CoarseSweepCtx runs only the coarse-grained sweeping phase over an
// existing pair list — sorted in place only as far as the sweep reads it,
// through the last similarity bucket it reaches — useful when comparing
// sweeping strategies over one initialization, as the paper's Fig. 5(2)
// does. The context is checked at every chunk boundary, bounding cancel
// latency by one chunk. It is the entry
// point for callers that already hold a pair list (for example from a
// similarity cache) and need the coarse phase alone — the degrade target of
// the memory-budget path when Phase I was skipped.
func CoarseSweepCtx(ctx context.Context, g *Graph, pl *PairList, params CoarseParams, rec *Recorder) (*CoarseResult, error) {
	return coarse.SweepCtx(ctx, g, pl, params, rec)
}

// NewDendrogram wraps a fine-grained result's merge stream.
func NewDendrogram(res *Result) *Dendrogram {
	return dendro.New(res.Chain.Len(), res.Merges)
}

// NewCoarseDendrogram wraps a coarse-grained result's merge stream.
func NewCoarseDendrogram(res *CoarseResult) *Dendrogram {
	return dendro.New(res.Chain.Len(), res.Merges)
}

// PartitionDensity scores an edge clustering with Ahn et al.'s partition
// density.
func PartitionDensity(g *Graph, labels []int32) float64 {
	return dendro.PartitionDensity(g, labels)
}

// BestCut returns the similarity threshold whose flat clustering maximizes
// partition density, with that density and clustering. Ties go to the higher
// threshold, and theta is 2 (above every similarity) whenever the
// all-singletons cut wins. One union-find pass scores every threshold.
func BestCut(g *Graph, d *Dendrogram) (theta, density float64, labels []int32) {
	return dendro.BestCut(g, d)
}

// Communities groups an edge clustering into link communities, largest
// first.
func Communities(g *Graph, labels []int32) []Community {
	return dendro.Communities(g, labels)
}

// NodeMemberships lists, per vertex, the communities it belongs to;
// vertices with more than one membership are the overlaps link clustering
// reveals.
func NodeMemberships(g *Graph, comms []Community) [][]int {
	return dendro.NodeMemberships(g, comms)
}

// NewCorpus returns an empty corpus; feed it with AddDocument or ReadLines.
func NewCorpus() *Corpus { return corpus.New() }

// DefaultSynthConfig returns the harness's synthetic-corpus configuration.
func DefaultSynthConfig() SynthConfig { return corpus.DefaultSynthConfig() }

// SynthesizeCorpus generates a deterministic tweet-like corpus.
func SynthesizeCorpus(cfg SynthConfig) *Corpus { return corpus.Synthesize(cfg) }

// BuildWordGraph constructs the word-association network over the top
// fraction alpha of the corpus vocabulary with PMI edge weights (Eq. 3).
func BuildWordGraph(c *Corpus, alpha float64, opts AssocOptions) (*Graph, error) {
	return assoc.Build(c, alpha, opts)
}

// Benchmarking against planted ground truth.
type (
	// PlantedConfig parameterizes the overlapping-community benchmark
	// generator.
	PlantedConfig = planted.Config
	// PlantedBenchmark is a generated graph with its ground-truth cover.
	PlantedBenchmark = planted.Benchmark
	// Cover is a set of (possibly overlapping) node communities.
	Cover = onmi.Cover
)

// DefaultPlantedConfig returns a moderate planted benchmark configuration.
func DefaultPlantedConfig() PlantedConfig { return planted.DefaultConfig() }

// GeneratePlanted builds a benchmark graph with known overlapping
// communities.
func GeneratePlanted(cfg PlantedConfig) (*PlantedBenchmark, error) {
	return planted.Generate(cfg)
}

// CompareCovers returns the overlapping normalized mutual information
// (Lancichinetti et al. 2009) between two covers over n nodes: 1 for
// identical covers, near 0 for independent ones.
func CompareCovers(x, y Cover, n int) (float64, error) {
	return onmi.Compare(x, y, n)
}

// CoverOf extracts the node cover induced by a set of link communities —
// the recovered counterpart of a planted ground-truth cover.
func CoverOf(comms []Community) Cover {
	out := make(Cover, 0, len(comms))
	for _, c := range comms {
		out = append(out, append([]int32(nil), c.Nodes...))
	}
	return out
}

// Coverage returns the fraction of edges whose endpoints share a community
// of the cover.
func Coverage(g *Graph, cover Cover) float64 {
	return metrics.Coverage(g, cover)
}

// MeanConductance averages the weighted conductance of the cover's
// communities; lower is better.
func MeanConductance(g *Graph, cover Cover) float64 {
	return metrics.MeanConductance(g, cover)
}

// OverlapModularity computes the extended modularity EQ (Shen et al. 2009)
// of a possibly overlapping cover.
func OverlapModularity(g *Graph, cover Cover) (float64, error) {
	return metrics.OverlapModularity(g, cover)
}
