// Command lcbench regenerates the paper's tables and figures on synthetic
// workloads. Each experiment prints the rows/series of one figure; see
// EXPERIMENTS.md for the mapping and the expected shapes.
//
// Usage:
//
//	lcbench -experiment all -size small
//	lcbench -experiment fig4-2 -size medium -repeats 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"linkclust/internal/bench"
	"linkclust/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lcbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run (fig2-1, fig2-2, fig4-1, fig4-2, fig4-3, fig5-1, fig5-2, fig6-1, fig6-2, theory, all)")
		size       = fs.String("size", "small", "workload size preset: small, medium, large")
		repeats    = fs.Int("repeats", 0, "timed repetitions per measurement (0 = preset default)")
		seed       = fs.Uint64("seed", 0, "corpus seed override (0 = preset default)")
		list       = fs.Bool("list", false, "list available experiments and exit")
		report     = fs.String("report", "", "write a JSON run report with per-experiment phase timings to this file (e.g. BENCH_small.json)")
		benchjson  = fs.String("benchjson", "", "write machine-readable microbenchmark results (linkclust/bench/v1) to this file; used by -experiment stream (BENCH_stream.json), outofcore (BENCH_outofcore.json) and service (BENCH_service.json)")
		validate   = fs.Bool("validate", false, "validate the BENCH_*.json files given as arguments against the linkclust/bench/v1 schema and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *validate {
		paths := fs.Args()
		if len(paths) == 0 {
			return fmt.Errorf("-validate needs at least one BENCH_*.json path")
		}
		for _, p := range paths {
			if err := bench.ValidateBenchFile(p); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: valid %s document\n", p, "linkclust/bench/v1")
		}
		return nil
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "%-8s %s\n", e.Name, e.Description)
		}
		return nil
	}
	cfg, err := bench.DefaultConfig(bench.Size(*size))
	if err != nil {
		return err
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *seed != 0 {
		cfg.Corpus.Seed = *seed
	}
	cfg.BenchJSON = *benchjson
	var rec *obs.Recorder
	if *report != "" {
		rec = obs.New()
		rec.SetMeta("command", "lcbench")
		rec.SetMeta("size", *size)
		rec.SetMeta("experiment", *experiment)
		cfg.Obs = rec
	}
	exp, err := bench.Lookup(*experiment)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lcbench: experiment=%s size=%s repeats=%d cpus=%d corpus={vocab=%d docs=%d seed=%d}\n\n",
		exp.Name, *size, cfg.Repeats, runtime.NumCPU(),
		cfg.Corpus.Vocab, cfg.Corpus.Docs, cfg.Corpus.Seed)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lcbench: closing cpu profile:", err)
			}
		}()
	}
	start := time.Now()
	end := rec.Phase(exp.Name)
	runErr := exp.Run(out, cfg)
	end()
	if *memprofile != "" {
		// Profile live allocations after the run; a forced GC makes the
		// heap profile reflect retained memory, not collectable garbage.
		runtime.GC()
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			f.Close()
			return werr
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "heap profile written to %s\n", *memprofile)
	}
	if runErr != nil {
		// The phases timed so far are still worth keeping: write the partial
		// report tagged with the error, then fail with the experiment's error.
		if rec != nil {
			rec.SetMeta("error", runErr.Error())
			if werr := writeReportJSON(rec, *report, out); werr != nil {
				fmt.Fprintln(os.Stderr, "lcbench: writing partial run report:", werr)
			}
		}
		return runErr
	}
	fmt.Fprintf(out, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	if rec != nil {
		rep := rec.Report()
		fmt.Fprintln(out)
		if err := rep.Fprint(out); err != nil {
			return err
		}
		if err := writeReportJSON(rec, *report, out); err != nil {
			return err
		}
	}
	return nil
}

// writeReportJSON finalizes the recorder and writes its RunReport to path.
func writeReportJSON(rec *obs.Recorder, path string, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.Report().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "run report written to %s\n", path)
	return nil
}
