package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"linkclust/internal/core"
)

// BenchSchemaV1 identifies the machine-readable microbenchmark format the
// harness emits (BENCH_*.json files). It is distinct from the run-report
// schema (linkclust/run-report/v1): a run report captures one pipeline's
// phases, a bench file captures a head-to-head comparison.
const BenchSchemaV1 = "linkclust/bench/v1"

// simKernelWorkers is the worker count of the parallel wedge column.
const simKernelWorkers = 8

// simKernelResult is one α row of the similarity-kernel microbenchmark.
type simKernelResult struct {
	Alpha         float64 `json:"alpha"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	Pairs         int     `json:"pairs"`          // K1
	IncidentPairs int64   `json:"incident_pairs"` // K2

	LegacySerialNs  int64 `json:"legacy_serial_ns"`
	WedgeSerialNs   int64 `json:"wedge_serial_ns"`
	WedgeParallelNs int64 `json:"wedge_parallel_ns"`

	SerialSpeedup float64 `json:"serial_speedup"`
}

// simKernelReport is the BENCH_similarity.json document.
type simKernelReport struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	CreatedAt time.Time         `json:"created_at"`
	Meta      map[string]string `json:"meta"`
	Results   []simKernelResult `json:"results"`
}

// SimKernel benchmarks the initialization-phase kernels head-to-head per
// fraction α: the legacy global hash-map accumulator against the
// wedge-major Gustavson kernel, serially, plus the wedge kernel's parallel
// count-then-fill path. All produce element-wise identical pair lists after
// Sort; this experiment measures only the cost of getting there. With
// cfg.BenchJSON set, the comparison is additionally written as a
// linkclust/bench/v1 JSON document.
func SimKernel(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: "simkernel: initialization kernels, legacy hash-map vs wedge-major (Gustavson)",
		Columns: []string{
			"alpha", "K1", "K2",
			"legacy-serial", "wedge-serial", "speedup",
			fmt.Sprintf("wedge-par(T=%d)", simKernelWorkers),
		},
		Notes: []string{
			"serial and parallel wedge output is bitwise identical to legacy serial after Sort",
			fmt.Sprintf("this machine exposes %d CPU core(s); parallel columns measure kernel cost, not scaling", runtime.NumCPU()),
		},
	}
	report := &simKernelReport{
		Schema:    BenchSchemaV1,
		Name:      "similarity-kernel",
		CreatedAt: time.Now().UTC(),
		Meta: map[string]string{
			"workers": fmt.Sprintf("%d", simKernelWorkers),
			"repeats": fmt.Sprintf("%d", cfg.Repeats),
			"cpus":    fmt.Sprintf("%d", runtime.NumCPU()),
		},
	}
	for _, wl := range wls {
		g := wl.Graph
		end := cfg.Obs.Phase(fmt.Sprintf("simkernel-alpha-%g", wl.Alpha))
		var pl *core.PairList
		legacySerial := timeIt(cfg.Repeats, func() { pl = core.SimilarityLegacy(g) })
		wedgeSerial := timeIt(cfg.Repeats, func() { pl = core.Similarity(g) })
		wedgePar := timeIt(cfg.Repeats, func() { pl = core.SimilarityParallel(g, simKernelWorkers) })
		end()
		res := simKernelResult{
			Alpha:           wl.Alpha,
			Vertices:        g.NumVertices(),
			Edges:           g.NumEdges(),
			Pairs:           len(pl.Pairs),
			IncidentPairs:   pl.NumIncidentPairs(),
			LegacySerialNs:  legacySerial.Nanoseconds(),
			WedgeSerialNs:   wedgeSerial.Nanoseconds(),
			WedgeParallelNs: wedgePar.Nanoseconds(),
		}
		if wedgeSerial > 0 {
			res.SerialSpeedup = float64(legacySerial) / float64(wedgeSerial)
		}
		report.Results = append(report.Results, res)
		t.AddRow(wl.Alpha, res.Pairs, res.IncidentPairs,
			formatSeconds(legacySerial), formatSeconds(wedgeSerial),
			formatFloat(res.SerialSpeedup)+"x",
			formatSeconds(wedgePar))
	}
	t.Fprint(w)
	if cfg.BenchJSON != "" {
		if err := writeBenchJSON(cfg.BenchJSON, report); err != nil {
			return fmt.Errorf("bench: writing %s: %w", cfg.BenchJSON, err)
		}
		fmt.Fprintf(w, "bench report written to %s\n", cfg.BenchJSON)
	}
	return nil
}

// writeBenchJSON writes one linkclust/bench/v1 document (any experiment's
// report struct) as indented JSON.
func writeBenchJSON(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
