// Command e2ebench is the repository benchmark. It drives the link-clustering
// system end to end on inputs generated from a seed, checks every output
// bitwise against serial Algorithm 2, and prints one JSON result line:
//
//	bash e2ebench/run.sh --workload corpus-communities --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run (plus the overhead of
// tracing, measured against an untraced run of the same length). README.md
// lists the workloads, the metrics and the layer each metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"linkclust/internal/par"
)

// metricDef is one metric of BENCHMARK.json. End-to-end metrics are printed
// by untraced runs, per-layer ones by traced runs.
type metricDef struct {
	name     string
	unit     string
	perLayer bool
}

// catalog lists every metric the benchmark prints, in BENCHMARK.json order.
// An "op" is one pass (corpus-communities), one job (daemon-mixed) or one
// ingest+snapshot step (stream-trickle).
var catalog = []metricDef{
	{"setup_s", "s", false},
	{"latency_p50_s", "s", false},
	{"latency_p90_s", "s", false},
	{"cold_latency_p50_s", "s", false},
	{"ops_per_s", "1/s", false},
	{"peak_heap_bytes", "bytes", false},

	{"corpus.ingest_s", "s", true},
	{"corpus.alloc_bytes", "bytes", true},
	{"assoc.build_s", "s", true},
	{"assoc.edges", "count", true},
	{"core.similarity_s", "s", true},
	{"core.similarity_alloc_bytes", "bytes", true},
	{"core.similarity_s.coarse_pairs_hit", "s", true},
	{"core.pairs", "count", true},
	{"core.incident_pairs", "count", true},
	{"core.sort_s", "s", true},
	{"core.sweep_s", "s", true},
	{"core.sort_ns_per_k1log2k1", "ns", true},
	{"core.sweep_ns_per_sqrtk2_e", "ns", true},
	{"coarse.sweep_s", "s", true},
	{"dendro.bestcut_s", "s", true},
	{"dendro.thresholds", "count", true},
	{"dendro.bestcut_ns_per_threshold_edge", "ns", true},
	{"dendro.communities_s", "s", true},
	{"jobs.submit_s", "s", true},
	{"jobs.queue_wait_p50_s", "s", true},
	{"jobs.queue_wait_p90_s", "s", true},
	{"jobs.merges_fetch_s", "s", true},
	{"jobs.run_s.cold", "s", true},
	{"jobs.run_s.coarse_pairs_hit", "s", true},
	{"jobs.run_s.spilled", "s", true},
	{"jobs.result_hit_ratio", "ratio", true},
	{"jobs.pairs_hit_ratio", "ratio", true},
	{"persist.state_bytes_per_job", "bytes", true},
	{"persist.run_s.cold", "s", true},
	{"spill.jobs_spilled", "count", true},
	{"stream.ingest_s", "s", true},
	{"stream.snapshot_s", "s", true},
	{"stream.replayed_ops_ratio", "ratio", true},
	{"stream.compactions_ratio", "ratio", true},
	{"stream.affected_rows_per_arrival", "ratio", true},
	{"failed_ratio", "ratio", true},
	{"trace_overhead_ratio", "ratio", true},
}

// workloads maps each workload name to the function measuring one stretch of
// it. A nil tracer means an untraced stretch.
var workloads = map[string]func(ctx context.Context, e *env, tr *tracer, budget time.Duration) (*stretch, error){
	"corpus-communities": measureCommunities,
	"daemon-mixed":       measureDaemon,
	"stream-trickle":     measureStream,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "seconds of measured operations")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics of a traced run")
	workDir := fs.String("workdir", ".bench_build", "directory for daemon state, spill files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	measure, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		seed:      *seed,
		workers:   runtime.NumCPU(),
		scale:     fullScale,
		workDir:   *workDir,
		reference: serialReference,
	}
	if err := checkCores(e.workers, daemonConcurrency, runtime.GOMAXPROCS(0), runtime.NumCPU()); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res, info, spans, err := measureAll(ctx, e, measure, *trace == 1, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	info["workload"] = *workload
	if spans != nil {
		path := filepath.Join(*workDir, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := writeJSONFile(path, spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		info["spans_file"] = path
	}
	// The facts the numbers depend on (cores, worker counts, resolved
	// engines, seed) go on the line before the result.
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %d of %d operations failed or produced a mismatched output\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// checkCores refuses configurations whose compute threads exceed the CPUs
// the process may run on: every figure the benchmark prints is meant to be a
// measurement on real cores, never on oversubscribed ones.
func checkCores(workers, concurrency, gomaxprocs, numCPU int) error {
	if gomaxprocs > numCPU {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; unset it", gomaxprocs, numCPU)
	}
	if workers < 1 || workers*concurrency > numCPU {
		return fmt.Errorf("%d workers x %d concurrent jobs exceed the %d CPUs available", workers, concurrency, numCPU)
	}
	return nil
}

// measureAll runs the workload and turns its stretches into the result line.
// Untraced, one stretch fills the budget. Traced, an untraced and a traced
// stretch share it, and their ratio is the tracing overhead.
func measureAll(ctx context.Context, e *env, measure func(context.Context, *env, *tracer, time.Duration) (*stretch, error),
	traced bool, budget time.Duration) (*result, map[string]any, []span, error) {
	e.info = map[string]any{
		"seed":             e.seed,
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"workers":          e.workers,
		"workers_resolved": par.Normalize(e.workers),
		"trace":            traced,
	}
	res := &result{Metrics: map[string]metricValue{}}
	if !traced {
		s, err := measure(ctx, e, nil, budget)
		if err != nil {
			return nil, nil, nil, err
		}
		res.Attempted, res.Failed = s.attempted, s.failed
		for _, m := range catalog {
			if m.perLayer {
				continue
			}
			v, err := s.endToEnd(m.name)
			if err != nil && s.failed == 0 { // failed ops leave no samples
				return nil, nil, nil, err
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		res.Correct = s.failed == 0
		return res, e.info, nil, nil
	}

	plain, err := measure(ctx, e, nil, budget/2)
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	withSpans, err := measure(ctx, e, tr, budget/2)
	if err != nil {
		return nil, nil, nil, err
	}
	res.Attempted = plain.attempted + withSpans.attempted
	res.Failed = plain.failed + withSpans.failed
	layers := withSpans.layers
	layers["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	layers["trace_overhead_ratio"] = mean(withSpans.lat) / mean(plain.lat)
	for _, m := range catalog {
		if !m.perLayer {
			continue
		}
		v := layers[m.name] // layers the workload never runs read 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, nil, fmt.Errorf("per-layer metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	res.Correct = res.Failed == 0
	return res, e.info, tr.spans, nil
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// errNoSamples marks an end-to-end metric a stretch has no samples for.
var errNoSamples = errors.New("no samples")
