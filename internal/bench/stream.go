package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/stream"
)

// streamWorkers is the worker count of both sides of the comparison: the
// incremental engine's acceptance configuration of 8, capped at
// runtime.NumCPU() so no row times more workers than the machine has CPUs.
func streamWorkers() int { return min(8, runtime.NumCPU()) }

// The timed protocol: everything but the last streamTimedSteps batches of
// streamTimedBatch arrivals is ingested (and snapshotted once) untimed, so
// every timed batch arrives at an engine with a mature pair list — the
// steady state the incremental path is for. Batches are deliberately small:
// the scenario under test is "a trickle of arrivals on a large accumulated
// graph", where from-scratch reclustering is pure waste.
const (
	streamTimedBatch = 64
	streamTimedSteps = 5
)

// streamResult is one timed arrival batch of the incremental-vs-batch run.
type streamResult struct {
	Alpha      float64 `json:"alpha"`
	Edges      int     `json:"edges"`       // edges after this batch
	BatchEdges int     `json:"batch_edges"` // arrivals in this batch

	// AffectedRows/ReplayedOps are the engine's own counters for this batch:
	// similarity rows recomputed and sweep ops the snapshot ran — the
	// incremental path's actual work.
	AffectedRows int64 `json:"affected_rows"`
	ReplayedOps  int64 `json:"replayed_ops"`
	TotalOps     int64 `json:"total_ops"` // K2 of the post-batch graph

	IncrementalNs int64   `json:"incremental_ns"` // IngestBatch + Snapshot
	BatchNs       int64   `json:"batch_ns"`       // parallel batch clustering from scratch
	Speedup       float64 `json:"speedup"`
	// Identical records that the snapshot was compared bitwise to the batch
	// run before its time was accepted; a divergence fails the experiment.
	Identical bool `json:"identical"`
}

// streamReport is the BENCH_stream.json document.
type streamReport struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	CreatedAt time.Time         `json:"created_at"`
	Meta      map[string]string `json:"meta"`
	Results   []streamResult    `json:"results"`
}

// Stream is the self-validating incremental-clustering benchmark: per fraction
// α it warms a stream engine with all but the last few small batches of the
// word graph's edges, then times those batches — IngestBatch plus Snapshot
// against the incremental engine versus full parallel batch clustering from
// scratch on the identical prefix graph (same edge ids, since both sides see
// the edges in id order). Every
// snapshot is compared bitwise to the batch result before its time counts, so
// a green run certifies the differential contract on real workloads while
// measuring what incrementality buys.
func Stream(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   fmt.Sprintf("stream: incremental ingest+snapshot vs batch clustering from scratch (bitwise, T=%d)", streamWorkers()),
		Columns: []string{"alpha", "edges", "+batch", "rows", "replay-ops", "K2", "incremental", "batch", "speedup"},
		Notes: []string{
			"every incremental snapshot is compared bitwise to a parallel batch run on the identical prefix graph before its time counts",
			fmt.Sprintf("all but the last %d batches of %d arrivals are ingested untimed (steady state); the small timed batches model a trickle of arrivals on a large accumulated graph", streamTimedSteps, streamTimedBatch),
			"incremental timings are single-shot (ingest mutates the engine); the batch side reports the minimum over -repeats runs",
		},
	}
	report := &streamReport{
		Schema:    BenchSchemaV1,
		Name:      "stream",
		CreatedAt: time.Now().UTC(),
		Meta: map[string]string{
			"workers":     fmt.Sprintf("%d", streamWorkers()),
			"repeats":     fmt.Sprintf("%d", cfg.Repeats),
			"timed_batch": fmt.Sprintf("%d", streamTimedBatch),
			"timed_steps": fmt.Sprintf("%d", streamTimedSteps),
			"cpus":        fmt.Sprintf("%d", runtime.NumCPU()),
		},
	}
	for _, wl := range wls {
		end := cfg.Obs.Phase(fmt.Sprintf("stream-alpha-%g", wl.Alpha))
		rows, err := streamAlpha(wl, cfg, t)
		end()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rows...)
	}
	t.Fprint(w)
	if len(report.Results) == 0 {
		return fmt.Errorf("bench: stream: every workload was too small to carve a timed batch from")
	}
	if cfg.BenchJSON != "" {
		if err := writeBenchJSON(cfg.BenchJSON, report); err != nil {
			return fmt.Errorf("bench: writing %s: %w", cfg.BenchJSON, err)
		}
		fmt.Fprintf(w, "bench report written to %s\n", cfg.BenchJSON)
	}
	return nil
}

// streamAlpha runs the warm-then-timed-batches protocol on one workload.
func streamAlpha(wl Workload, cfg Config, t *Table) ([]streamResult, error) {
	g := wl.Graph
	n := g.NumVertices()
	edges := g.Edges()
	m := len(edges)
	// Keep at least half the edges in the warm phase; tiny graphs get fewer
	// (or zero) timed steps rather than an immature engine.
	steps := streamTimedSteps
	for steps > 0 && m-steps*streamTimedBatch < m/2 {
		steps--
	}
	warm := m - steps*streamTimedBatch
	if steps == 0 {
		return nil, nil
	}
	rec := obs.New()
	eng, err := stream.New(stream.Options{
		Workers:     streamWorkers(),
		Recorder:    rec,
		MaxVertices: n,
	})
	if err != nil {
		return nil, err
	}
	arrival := func(i int) stream.Arrival {
		return stream.Arrival{U: int(edges[i].U), V: int(edges[i].V), W: edges[i].Weight}
	}
	batchOf := func(lo, hi int) []stream.Arrival {
		out := make([]stream.Arrival, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, arrival(i))
		}
		return out
	}
	// Warm phase, untimed: bulk ingest and one snapshot so the engine holds a
	// full pair list before measurement starts.
	if err := eng.IngestBatch(batchOf(0, warm)); err != nil {
		return nil, err
	}
	if _, err := eng.Snapshot(); err != nil {
		return nil, err
	}

	var out []streamResult
	for lo := warm; lo < m; lo += streamTimedBatch {
		hi := min(lo+streamTimedBatch, m)
		rowsBefore := rec.Counter(stream.CtrAffectedRows)
		opsBefore := rec.Counter(stream.CtrReplayedOps)
		start := time.Now()
		if err := eng.IngestBatch(batchOf(lo, hi)); err != nil {
			return nil, err
		}
		res, err := eng.Snapshot()
		if err != nil {
			return nil, err
		}
		incNs := time.Since(start)

		// The batch side: the identical prefix graph from scratch. Replay in
		// id order gives the Builder the same edge ids the dynamic graph
		// assigned, so the comparison below is bitwise, not just structural.
		b := graph.NewBuilder(n)
		for i := 0; i < hi; i++ {
			a := arrival(i)
			b.MustAddEdge(a.U, a.V, a.W)
		}
		gp := b.Build(nil)
		var batchRes *core.Result
		batchNs := timeIt(cfg.Repeats, func() {
			r, err2 := core.SweepParallel(gp, core.SimilarityParallel(gp, streamWorkers()), streamWorkers())
			if err2 != nil {
				err = err2
				return
			}
			batchRes = r
		})
		if err != nil {
			return nil, fmt.Errorf("bench: batch run at alpha %v prefix %d: %w", wl.Alpha, hi, err)
		}
		if err := sameMergeStream(batchRes, res); err != nil {
			return nil, fmt.Errorf("bench: alpha %v prefix %d: incremental snapshot diverged: %w", wl.Alpha, hi, err)
		}
		row := streamResult{
			Alpha:         wl.Alpha,
			Edges:         hi,
			BatchEdges:    hi - lo,
			AffectedRows:  rec.Counter(stream.CtrAffectedRows) - rowsBefore,
			ReplayedOps:   rec.Counter(stream.CtrReplayedOps) - opsBefore,
			TotalOps:      batchRes.PairsProcessed,
			IncrementalNs: incNs.Nanoseconds(),
			BatchNs:       batchNs.Nanoseconds(),
			Speedup:       float64(batchNs) / float64(incNs),
			Identical:     true,
		}
		out = append(out, row)
		t.AddRow(wl.Alpha, row.Edges, row.BatchEdges, row.AffectedRows, row.ReplayedOps, row.TotalOps,
			formatSeconds(incNs), formatSeconds(batchNs), fmt.Sprintf("%.2fx", row.Speedup))
	}
	return out, nil
}
