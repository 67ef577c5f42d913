// Command linkclust is the end-to-end pipeline CLI: synthesize or ingest a
// corpus, build a word-association graph, cluster its links (fine-grained,
// coarse-grained, or with the standard baselines), and report the
// dendrogram and the link communities at the best partition-density cut.
//
// Subcommands:
//
//	linkclust synth  -vocab 2000 -docs 5000 > tweets.txt
//	linkclust graph  -alpha 0.2 -in tweets.txt > graph.txt
//	linkclust stats  -in graph.txt
//	linkclust simil  -in graph.txt -out pairs.bin    # cache phase I
//	linkclust cluster -in graph.txt -pairs pairs.bin -algo sweep \
//	    -communities 5 -save-merges merges.bin -newick d.nwk -dot g.dot
//	linkclust cluster -in graph.txt -report run.json -pprof run  # observability
//	linkclust cluster -in graph.txt -stream -stream-batch 256    # incremental replay
//	linkclust analyze -in graph.txt -merges merges.bin
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"linkclust"
	"linkclust/internal/baseline"
	"linkclust/internal/coarse"
	"linkclust/internal/core"
	"linkclust/internal/corpus"
	"linkclust/internal/dendro"
)

func main() {
	// SIGINT cancels the run context instead of killing the process: the
	// clustering engines observe it within one scheduling window, unwind
	// cleanly, and the error path still writes the partial run report.
	// A second SIGINT falls through to the default handler (hard kill).
	//
	// os.Exit skips deferred functions, so nothing that must happen — the
	// report write inside run's defers, and stop() restoring the default
	// signal disposition — may live behind a defer crossed by os.Exit.
	// run() returns only after its own defers (including the partial-report
	// writer) have completed, stop() is called explicitly, and only then is
	// the exit code raised; the report writer itself is atomic (temp file +
	// rename, see writeReport), so even a hard kill mid-write never leaves
	// a truncated JSON document at the report path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkclust:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // conventional 128+SIGINT
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "synth":
		return cmdSynth(args[1:], stdout)
	case "graph":
		return cmdGraph(args[1:], stdin, stdout)
	case "stats":
		return cmdStats(args[1:], stdin, stdout)
	case "simil":
		return cmdSimil(ctx, args[1:], stdin, stdout)
	case "cluster":
		return cmdCluster(ctx, args[1:], stdin, stdout)
	case "analyze":
		return cmdAnalyze(args[1:], stdin, stdout)
	case "help", "-h", "--help":
		return usageError()
	default:
		return fmt.Errorf("unknown subcommand %q: %w", args[0], usageError())
	}
}

// withTimeout derives the subcommand context from the -timeout flag; zero
// means no deadline.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// reportOnError returns a deferred hook that writes the run report on the
// error path (cancellation, timeout, worker panic, ...), tagging it with the
// error so a partial report is distinguishable from a completed one. The
// success path writes its own report and sets *written to suppress the hook.
func reportOnError(rec *linkclust.Recorder, path string, stdout io.Writer, errp *error, written *bool) func() {
	return func() {
		if *errp == nil || *written || rec == nil || path == "" {
			return
		}
		rec.SetMeta("error", (*errp).Error())
		if werr := writeReport(rec, path, stdout); werr != nil {
			fmt.Fprintln(os.Stderr, "linkclust: writing partial run report:", werr)
		}
	}
}

func usageError() error {
	return fmt.Errorf("usage: linkclust <synth|graph|stats|simil|cluster|analyze> [flags]")
}

// cmdAnalyze reads a graph and a saved merge stream and prints the cut
// profile: for a sample of similarity thresholds, the cluster count,
// partition density, edge coverage, and overlapping modularity of the
// resulting communities — the model-selection view over a cached
// dendrogram.
func cmdAnalyze(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		in     = fs.String("in", "-", "input graph (- for stdin)")
		mpath  = fs.String("merges", "", "merge-stream file from 'cluster -save-merges' (required)")
		sample = fs.Int("cuts", 12, "number of thresholds to sample")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mpath == "" {
		return fmt.Errorf("analyze: -merges is required")
	}
	r, closeIn, err := openInput(*in, stdin)
	if err != nil {
		return err
	}
	defer closeIn()
	g, err := linkclust.ReadGraph(r)
	if err != nil {
		return err
	}
	mf, err := os.Open(*mpath)
	if err != nil {
		return err
	}
	n, merges, err := core.ReadMerges(mf)
	mf.Close()
	if err != nil {
		return err
	}
	if n != g.NumEdges() {
		return fmt.Errorf("analyze: merge stream is over %d edges but graph has %d", n, g.NumEdges())
	}
	d := dendro.New(n, merges)
	ths := d.Thresholds()
	if len(ths) == 0 {
		fmt.Fprintln(stdout, "no merges: every edge is its own community")
		return nil
	}
	step := len(ths) / *sample
	if step < 1 {
		step = 1
	}
	fmt.Fprintf(stdout, "%-10s %-9s %-9s %-9s %-9s\n", "sim>=", "clusters", "density", "coverage", "EQ")
	bestDensity, bestTheta := -1.0, 0.0
	for i := 0; i < len(ths); i += step {
		theta := ths[i]
		labels := d.CutSim(theta)
		comms := linkclust.Communities(g, labels)
		cover := linkclust.CoverOf(comms)
		density := linkclust.PartitionDensity(g, labels)
		eqCell := "-"
		if eq, err := linkclust.OverlapModularity(g, cover); err == nil {
			eqCell = fmt.Sprintf("%.4f", eq)
		}
		fmt.Fprintf(stdout, "%-10.4g %-9d %-9.4f %-9.4f %-9s\n",
			theta, len(comms), density, linkclust.Coverage(g, cover), eqCell)
		if density > bestDensity {
			bestDensity, bestTheta = density, theta
		}
	}
	fmt.Fprintf(stdout, "max partition density %.4f at sim >= %.4g\n", bestDensity, bestTheta)
	return nil
}

// writeReport finalizes the recorder and writes its RunReport JSON; a nil
// recorder (observability off) writes nothing. The write is atomic — the
// JSON lands in a temp file in the same directory and is renamed over the
// target — so an interrupt arriving mid-write (the second-SIGINT hard kill)
// can never leave a truncated document at the report path: the file either
// holds the previous content or the complete new report.
func writeReport(rec *linkclust.Recorder, path string, stdout io.Writer) error {
	if rec == nil || path == "" {
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := rec.Report().WriteJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Fprintf(stdout, "run report written to %s\n", path)
	return nil
}

// profiler manages the optional -pprof CPU/heap profile pair. The zero
// value (profiling off) is valid; every method is nil-safe.
type profiler struct {
	prefix  string
	cpu     *os.File
	stopped bool
}

// startProfiler begins CPU profiling to <prefix>.cpu.pprof; an empty prefix
// returns a nil profiler.
func startProfiler(prefix string) (*profiler, error) {
	if prefix == "" {
		return nil, nil
	}
	f, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{prefix: prefix, cpu: f}, nil
}

// stop ends CPU profiling and closes the file; safe to call repeatedly (it
// also backstops error paths via defer).
func (p *profiler) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	pprof.StopCPUProfile()
	p.cpu.Close()
}

// finish stops CPU profiling and writes the heap profile of the finished
// run to <prefix>.heap.pprof.
func (p *profiler) finish(stdout io.Writer) error {
	if p == nil {
		return nil
	}
	p.stop()
	f, err := os.Create(p.prefix + ".heap.pprof")
	if err != nil {
		return err
	}
	runtime.GC() // profile retained structures, not garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "profiles written to %s.cpu.pprof and %s.heap.pprof\n", p.prefix, p.prefix)
	return nil
}

// openInput returns stdin for path "-" or "" and the named file otherwise.
func openInput(path string, stdin io.Reader) (io.Reader, func() error, error) {
	if path == "" || path == "-" {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdSynth(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	var (
		vocab  = fs.Int("vocab", 2000, "vocabulary size")
		docs   = fs.Int("docs", 5000, "number of documents")
		topics = fs.Int("topics", 16, "latent topics")
		seed   = fs.Uint64("seed", 1, "PRNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := corpus.DefaultSynthConfig()
	cfg.Vocab, cfg.Docs, cfg.Topics, cfg.Seed = *vocab, *docs, *topics, *seed
	w := bufio.NewWriter(stdout)
	for _, line := range corpus.SynthesizeRaw(cfg) {
		fmt.Fprintln(w, line)
	}
	return w.Flush()
}

func cmdGraph(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("graph", flag.ContinueOnError)
	var (
		in    = fs.String("in", "-", "input corpus, one document per line (- for stdin)")
		alpha = fs.Float64("alpha", 0.1, "fraction of most frequent candidate words to keep")
		seed  = fs.Uint64("permseed", 42, "edge-id permutation seed (0 keeps construction order)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, closeIn, err := openInput(*in, stdin)
	if err != nil {
		return err
	}
	defer closeIn()
	c := linkclust.NewCorpus()
	if err := c.ReadLines(r); err != nil {
		return fmt.Errorf("reading corpus: %w", err)
	}
	g, err := linkclust.BuildWordGraph(c, *alpha, linkclust.AssocOptions{EdgePermSeed: *seed})
	if err != nil {
		return err
	}
	return linkclust.WriteGraph(stdout, g)
}

func cmdStats(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "-", "input graph (- for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, closeIn, err := openInput(*in, stdin)
	if err != nil {
		return err
	}
	defer closeIn()
	g, err := linkclust.ReadGraph(r)
	if err != nil {
		return err
	}
	s := linkclust.ComputeStats(g)
	fmt.Fprintf(stdout, "vertices      %d\n", s.Vertices)
	fmt.Fprintf(stdout, "edges         %d\n", s.Edges)
	fmt.Fprintf(stdout, "density       %.6g\n", s.Density)
	fmt.Fprintf(stdout, "K1            %d\n", s.K1)
	fmt.Fprintf(stdout, "K2            %d\n", s.K2)
	fmt.Fprintf(stdout, "K3            %d\n", s.K3)
	fmt.Fprintf(stdout, "max degree    %d\n", s.MaxDegree)
	fmt.Fprintf(stdout, "avg degree    %.6g\n", s.AvgDegree)
	return nil
}

// cmdSimil runs only the initialization phase (Algorithm 1) and caches the
// similarity pair list in the binary format, so repeated clustering runs
// (different coarse parameters, different cuts) skip the most expensive
// phase.
func cmdSimil(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("simil", flag.ContinueOnError)
	var (
		in      = fs.String("in", "-", "input graph (- for stdin)")
		out     = fs.String("out", "", "output pair-list file (required)")
		workers = fs.Int("workers", 1, "worker threads")
		report  = fs.String("report", "", "write a JSON run report (phase timers, counters) to this file")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("simil: -out is required")
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	var rec *linkclust.Recorder
	if *report != "" {
		rec = linkclust.NewRecorder()
		rec.SetMeta("command", "simil")
		rec.SetMeta("workers", strconv.Itoa(*workers))
	}
	reportWritten := false
	defer reportOnError(rec, *report, stdout, &err, &reportWritten)()
	r, closeIn, err := openInput(*in, stdin)
	if err != nil {
		return err
	}
	defer closeIn()
	endRead := rec.Phase("read-graph")
	g, err := linkclust.ReadGraph(r)
	endRead()
	if err != nil {
		return err
	}
	pl, err := core.SimilarityCtx(ctx, g, *workers, rec)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := core.WritePairList(f, pl); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d pairs (%d incident edge pairs) to %s\n",
		len(pl.Pairs), pl.NumIncidentPairs(), *out)
	reportWritten = true
	return writeReport(rec, *report, stdout)
}

func cmdCluster(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	var (
		in       = fs.String("in", "-", "input graph (- for stdin)")
		algo     = fs.String("algo", "sweep", "algorithm: sweep, coarse, nbm, slink")
		workers  = fs.Int("workers", 1, "worker threads for init and the sweep/coarse phases")
		engine   = fs.String("engine", "auto", "sweep engine: parallel (in memory) or spill (out of core); auto and serial are retired names for parallel (output identical)")
		spillDir = fs.String("spill-dir", "", "sweep: spill the pair list to disk under this directory and sweep out of core (implies -engine spill; empty with -engine spill uses the system temp dir)")
		stream   = fs.Bool("stream", false, "sweep: replay the input edges through the incremental stream engine (output unchanged)")
		streamB  = fs.Int("stream-batch", 256, "stream: arrivals per ingest batch")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		gamma    = fs.Float64("gamma", 2, "coarse: max cluster-count ratio per level")
		phi      = fs.Int("phi", 100, "coarse: stop below this many clusters")
		delta0   = fs.Int64("delta0", 1000, "coarse: initial chunk size")
		eta0     = fs.Float64("eta0", 8, "coarse: head-mode growth factor")
		comms    = fs.Int("communities", 0, "print the N largest communities at the best-density cut")
		merges   = fs.Bool("merges", false, "print the merge stream")
		newick   = fs.String("newick", "", "write the dendrogram to this file in Newick format")
		pairs    = fs.String("pairs", "", "read the similarity pair list (an LCPL v2 file written by 'linkclust simil') from this file, skipping phase I; it is checked against the graph before any sweep")
		saveTo   = fs.String("save-merges", "", "write the merge stream to this file in binary format")
		dot      = fs.String("dot", "", "write a Graphviz DOT file with edges colored by best-cut community")
		report   = fs.String("report", "", "write a JSON run report (phase timers, counters, memory deltas) to this file")
		prof     = fs.String("pprof", "", "write CPU/heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engine == "" {
		return fmt.Errorf("-engine must not be empty")
	}
	if err := linkclust.CheckEngine(*engine); err != nil {
		return err
	}
	if *spillDir != "" {
		if *algo != "sweep" {
			return fmt.Errorf("-spill-dir only applies to -algo sweep")
		}
		if *engine != linkclust.EngineAuto && *engine != linkclust.EngineSpill {
			return fmt.Errorf("-spill-dir conflicts with -engine %s", *engine)
		}
		*engine = linkclust.EngineSpill
	}
	if *stream {
		if *algo != "sweep" {
			return fmt.Errorf("-stream only applies to -algo sweep")
		}
		if *pairs != "" {
			return fmt.Errorf("-stream conflicts with -pairs (the stream engine maintains phase I incrementally)")
		}
		if *engine != linkclust.EngineAuto {
			return fmt.Errorf("-stream conflicts with -engine %s", *engine)
		}
		if *spillDir != "" {
			return fmt.Errorf("-stream conflicts with -spill-dir")
		}
		if *streamB < 1 {
			return fmt.Errorf("-stream-batch must be at least 1")
		}
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	var rec *linkclust.Recorder
	if *report != "" {
		rec = linkclust.NewRecorder()
		rec.SetMeta("command", "cluster")
		rec.SetMeta("algo", *algo)
		rec.SetMeta("workers", strconv.Itoa(*workers))
		rec.SetMeta("stream", strconv.FormatBool(*stream))
	}
	reportWritten := false
	defer reportOnError(rec, *report, stdout, &err, &reportWritten)()
	prf, err := startProfiler(*prof)
	if err != nil {
		return err
	}
	defer prf.stop() // backstop for error paths; finish() below on success
	r, closeIn, err := openInput(*in, stdin)
	if err != nil {
		return err
	}
	defer closeIn()
	endRead := rec.Phase("read-graph")
	g, err := linkclust.ReadGraph(r)
	endRead()
	if err != nil {
		return err
	}

	// Phase I: from cache when -pairs is given, otherwise computed here. The
	// stream path skips it — the engine maintains phase I incrementally.
	var pl *linkclust.PairList
	switch {
	case *stream:
		// Nothing to do here: the engine recomputes affected rows per batch.
	case *pairs != "":
		pf, err := os.Open(*pairs)
		if err != nil {
			return err
		}
		endLoad := rec.Phase("load-pairs")
		pl, err = core.ReadPairList(pf)
		pf.Close()
		if err == nil {
			// The sweeps trust a pair's count N once their merges span the
			// op graph, so a list from another graph is refused here.
			err = core.CheckPairs(g, pl)
		}
		endLoad()
		if err != nil {
			return fmt.Errorf("%s: %w", *pairs, err)
		}
	default:
		pl, err = core.SimilarityCtx(ctx, g, *workers, rec)
		if err != nil {
			return err
		}
	}
	if rec != nil {
		rec.SetMeta("vertices", strconv.Itoa(g.NumVertices()))
		rec.SetMeta("edges", strconv.Itoa(g.NumEdges()))
	}

	var (
		mergeStream []linkclust.Merge
		d           *linkclust.Dendrogram
	)
	switch {
	case *stream:
		// Incremental replay: feed the edges through the stream engine in id
		// order and snapshot at the end. By the engine's differential contract
		// the result is bitwise what -algo sweep computes on the same graph.
		res, err := replayStream(ctx, g, *workers, *streamB, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "algorithm      stream (workers=%d, batch=%d)\n", *workers, *streamB)
		fmt.Fprintf(stdout, "edges          %d\n", g.NumEdges())
		fmt.Fprintf(stdout, "levels         %d\n", res.Levels)
		fmt.Fprintf(stdout, "merges         %d\n", len(res.Merges))
		fmt.Fprintf(stdout, "final clusters %d\n", res.NumClusters())
		mergeStream = res.Merges
		d = linkclust.NewDendrogram(res)
	case *algo == "sweep":
		// Both sweeps reproduce the serial merge stream bitwise, so
		// -workers and -engine only change how the sweep runs, never what
		// it outputs.
		res, run, err := linkclust.RunSweep(ctx, g, pl, linkclust.ClusterOptions{
			Workers: *workers, Recorder: rec, Engine: *engine, SpillDir: *spillDir,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "algorithm      sweep (workers=%d, engine=%s)\n", *workers, run.Engine)
		fmt.Fprintf(stdout, "edges          %d\n", g.NumEdges())
		fmt.Fprintf(stdout, "levels         %d\n", res.Levels)
		fmt.Fprintf(stdout, "merges         %d\n", len(res.Merges))
		fmt.Fprintf(stdout, "final clusters %d\n", res.NumClusters())
		mergeStream = res.Merges
		d = linkclust.NewDendrogram(res)
	case *algo == "coarse":
		params := linkclust.CoarseParams{Gamma: *gamma, Phi: *phi, Delta0: *delta0, Eta0: *eta0, Workers: *workers}
		res, err := coarse.SweepCtx(ctx, g, pl, params, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "algorithm      coarse (gamma=%v phi=%d delta0=%d eta0=%v workers=%d)\n",
			*gamma, *phi, *delta0, *eta0, *workers)
		fmt.Fprintf(stdout, "edges          %d\n", g.NumEdges())
		fmt.Fprintf(stdout, "levels         %d\n", res.Levels)
		fmt.Fprintf(stdout, "epochs         %d\n", len(res.Epochs))
		fmt.Fprintf(stdout, "final clusters %d\n", res.FinalClusters)
		fmt.Fprintf(stdout, "pairs processed %.1f%% of %d\n", 100*res.FractionProcessed(), res.TotalOps)
		mergeStream = res.Merges
		d = linkclust.NewCoarseDendrogram(res)
	case *algo == "nbm":
		endStd := rec.Phase("standard-nbm")
		es := baseline.NewEdgeSim(g, pl)
		res, err := baseline.NBM(es)
		endStd()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "algorithm      standard single-linkage (next-best-merge)\n")
		fmt.Fprintf(stdout, "edges          %d\n", g.NumEdges())
		fmt.Fprintf(stdout, "merges         %d\n", len(res.Merges))
		fmt.Fprintf(stdout, "matrix bytes   %d\n", res.MatrixBytes)
		mergeStream = res.Merges
	case *algo == "slink":
		endStd := rec.Phase("standard-slink")
		es := baseline.NewEdgeSim(g, pl)
		res := baseline.SLINK(es)
		endStd()
		fmt.Fprintf(stdout, "algorithm      SLINK\n")
		fmt.Fprintf(stdout, "edges          %d\n", g.NumEdges())
		labels := res.CutSim(1e-12)
		fmt.Fprintf(stdout, "clusters at sim>0: %d\n", countLabels(labels))
		if err := prf.finish(stdout); err != nil {
			return err
		}
		reportWritten = true
		return writeReport(rec, *report, stdout)
	default:
		return fmt.Errorf("unknown algorithm %q (want sweep, coarse, nbm or slink)", *algo)
	}

	if *merges {
		for _, m := range mergeStream {
			fmt.Fprintf(stdout, "level %d: %d, %d -> %d (sim %.6g)\n", m.Level, m.A, m.B, m.Into, m.Sim)
		}
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		if err := core.WriteMerges(f, g.NumEdges(), mergeStream); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merge stream written to %s\n", *saveTo)
	}
	if *newick != "" && d != nil {
		f, err := os.Create(*newick)
		if err != nil {
			return err
		}
		leaf := func(e int32) string {
			edge := g.Edge(int(e))
			return g.Label(int(edge.U)) + "-" + g.Label(int(edge.V))
		}
		if err := d.WriteNewick(f, leaf); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dendrogram written to %s\n", *newick)
	}
	// -dot and -communities draw the same best cut.
	var theta, density float64
	var labels []int32
	if (*dot != "" || *comms > 0) && d != nil {
		theta, density, labels = linkclust.BestCut(g, d)
	}
	if *dot != "" && d != nil {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		if err := linkclust.WriteDOT(f, g, func(e int32) int32 { return labels[e] }); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "DOT graph written to %s\n", *dot)
	}
	if *comms > 0 && d != nil {
		fmt.Fprintf(stdout, "best cut: sim >= %.6g, partition density %.4f\n", theta, density)
		cs := linkclust.Communities(g, labels)
		for i, c := range cs {
			if i >= *comms {
				fmt.Fprintf(stdout, "... and %d more communities\n", len(cs)-i)
				break
			}
			names := make([]string, 0, len(c.Nodes))
			for _, v := range c.Nodes {
				names = append(names, g.Label(int(v)))
			}
			const maxShown = 12
			if len(names) > maxShown {
				names = append(names[:maxShown], "...")
			}
			fmt.Fprintf(stdout, "community %d: %d links, %d nodes: %s\n",
				i+1, len(c.Edges), len(c.Nodes), strings.Join(names, " "))
		}
	}
	if err := prf.finish(stdout); err != nil {
		return err
	}
	reportWritten = true
	return writeReport(rec, *report, stdout)
}

// replayStream feeds the graph's edges, in id order, through the incremental
// stream engine in fixed-size batches and returns the final snapshot. Replay
// in id order keeps the dynamic graph's edge ids equal to the input's, so the
// result — bitwise identical to a batch sweep by the engine's differential
// contract — drives the same downstream flags (-merges, -newick, -dot,
// -communities) unchanged. Cancellation is honored at every ingest batch and
// inside the snapshot's row/sweep windows.
func replayStream(ctx context.Context, g *linkclust.Graph, workers, batch int, rec *linkclust.Recorder) (*linkclust.Result, error) {
	eng, err := linkclust.NewStream(linkclust.StreamOptions{
		Workers:     workers,
		Recorder:    rec,
		MaxVertices: g.NumVertices(),
	})
	if err != nil {
		return nil, err
	}
	edges := g.Edges()
	arr := make([]linkclust.Arrival, 0, batch)
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		arr = arr[:0]
		for _, e := range edges[lo:hi] {
			arr = append(arr, linkclust.Arrival{U: int(e.U), V: int(e.V), W: e.Weight})
		}
		if err := eng.IngestBatchCtx(ctx, arr); err != nil {
			return nil, err
		}
	}
	return eng.SnapshotCtx(ctx)
}

func countLabels(labels []int32) int {
	set := make(map[int32]struct{}, len(labels))
	for _, l := range labels {
		set[l] = struct{}{}
	}
	return len(set)
}
