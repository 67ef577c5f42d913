package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/obs"
)

// outOfCoreWorkers is the thread sweep of the spilled-vs-windowed
// comparison, run only at counts the machine has CPUs for (see
// outOfCoreWorkerCounts).
var outOfCoreWorkers = []int{1, 2, 4, 8}

// outOfCoreWorkerCounts returns the outOfCoreWorkers at or below
// runtime.NumCPU(): a row at more workers than CPUs measures the
// scheduler, not the sweep.
func outOfCoreWorkerCounts() []int {
	var ws []int
	for _, w := range outOfCoreWorkers {
		if w <= runtime.NumCPU() {
			ws = append(ws, w)
		}
	}
	return ws
}

// outOfCoreResult is one (alpha, workers) row of BENCH_outofcore.json.
type outOfCoreResult struct {
	Alpha   float64 `json:"alpha"`
	Edges   int     `json:"edges"`
	Pairs   int     `json:"pairs"`   // similarity pairs in the list
	PairKB  int64   `json:"pair_kb"` // encoded spill payload of the list
	Workers int     `json:"workers"`

	SpillKB int64 `json:"spill_kb"`

	SpilledNs  int64   `json:"spilled_ns"`
	WindowedNs int64   `json:"windowed_ns"`
	Overhead   float64 `json:"overhead"` // spilled / windowed wall clock
	// Identical records that every timed run — spilled and windowed — was
	// compared bitwise to the serial sweep before its time was accepted.
	Identical bool `json:"identical"`

	// The facade-ladder acceptance leg: ClusterCtx under a budget the pair
	// list's spill payload exceeds at least 4× rerouted through the spill
	// (spill counter 1, degrade counter 0) and matched the serial merge
	// stream bitwise. Every row runs it; a failed check fails the
	// experiment.
	LadderBudgetKB int64 `json:"ladder_budget_kb"`
	LadderSpills   int64 `json:"ladder_spills"`
	LadderDegrades int64 `json:"ladder_degrades"`
}

// outOfCoreReport is the BENCH_outofcore.json document.
type outOfCoreReport struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	CreatedAt time.Time         `json:"created_at"`
	Meta      map[string]string `json:"meta"`
	Results   []outOfCoreResult `json:"results"`
}

// OutOfCore is the self-validating disk-spill benchmark: per fraction α and
// worker count it times the spilled sweep (the pair list written to one
// checksummed spill file, read back, then swept by the windowed engine)
// against the in-memory windowed sweep (barrier sort, then SweepParallel's
// engine over the whole list), each run consuming a fresh clone of
// the same pair list. Every timed run is first compared bitwise to the
// serial sweep — a divergence fails the whole experiment, so a reported time
// is also a proof of correctness. Each row additionally drives the facade's
// memory-budget ladder, with no fault injection: pair-list bytes above the
// budget choose the spill rung, so a ClusterCtx run under a budget of a
// quarter of the pair list's encoded footprint — the list exceeds the
// budget at least 4× — must reroute through the spill (spill first; the
// coarse degrade is only for a write-phase disk failure) and land on the
// serial merge stream exactly.
func OutOfCore(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "outofcore: disk-spilled sweep vs in-memory windowed (bitwise self-validating)",
		Columns: []string{"alpha", "edges", "pairs", "pair-KB", "T", "spill-KB", "spilled", "windowed", "overhead"},
		Notes: []string{
			"every timed run, spilled and windowed, is compared bitwise to the serial sweep before its time counts",
			"each run consumes a fresh pair-list clone built outside the timed region",
			"on every row, ClusterCtx under budget pair-KB/4 -- a budget the spill payload exceeds >=4x -- rerouted",
			"  through the spilled sweep (mem_budget_spills 1, mem_budget_degrades 0) and stayed bitwise identical",
			"timings are the minimum over -repeats runs; spill files live in the OS temp directory",
		},
	}
	report := &outOfCoreReport{
		Schema:    BenchSchemaV1,
		Name:      "outofcore",
		CreatedAt: time.Now().UTC(),
		Meta: map[string]string{
			"workers": fmt.Sprintf("%v", outOfCoreWorkerCounts()),
			"repeats": fmt.Sprintf("%d", cfg.Repeats),
			"cpus":    fmt.Sprintf("%d", runtime.NumCPU()),
		},
	}
	for _, wl := range wls {
		end := cfg.Obs.Phase(fmt.Sprintf("outofcore-alpha-%g", wl.Alpha))
		rows, err := outOfCoreAlpha(wl, cfg, t)
		end()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rows...)
	}
	t.Fprint(w)
	if len(report.Results) == 0 {
		return fmt.Errorf("bench: outofcore: no workload produced a sweepable pair list")
	}
	if cfg.BenchJSON != "" {
		if err := writeBenchJSON(cfg.BenchJSON, report); err != nil {
			return fmt.Errorf("bench: writing %s: %w", cfg.BenchJSON, err)
		}
		fmt.Fprintf(w, "bench report written to %s\n", cfg.BenchJSON)
	}
	return nil
}

// clonePairList copies the pair slice: the sweep engines permute (and the
// spilled sweep releases) the list they are given, so every consuming run
// gets its own copy of one master list.
func clonePairList(pl *core.PairList) *core.PairList {
	return &core.PairList{Pairs: append([]core.Pair(nil), pl.Pairs...)}
}

// outOfCoreAlpha runs the spilled-vs-windowed protocol on one workload and
// returns its rows, one per worker count.
func outOfCoreAlpha(wl Workload, cfg Config, t *Table) ([]outOfCoreResult, error) {
	g := wl.Graph
	master := core.SimilarityParallel(g, 8)
	if len(master.Pairs) == 0 {
		return nil, nil
	}
	payload := core.SpillPayloadBytes(master)
	serial, err := core.Sweep(g, clonePairList(master))
	if err != nil {
		return nil, fmt.Errorf("bench: serial sweep at alpha %v: %w", wl.Alpha, err)
	}
	// The ladder budget: a quarter of the encoded pair list, so the spilled
	// payload exceeds the budget by at least the acceptance factor of 4 (the
	// in-memory list the facade checks, PairList.Bytes, is larger still).
	budget := payload / 4
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}

	var out []outOfCoreResult
	for _, workers := range outOfCoreWorkerCounts() {
		rec := obs.New()
		var spilledNs, windowedNs time.Duration
		for r := 0; r < repeats; r++ {
			// Counters are taken from the first repeat only, keeping them
			// single-run values.
			var rrec *obs.Recorder
			if r == 0 {
				rrec = rec
			}
			pl := clonePairList(master)
			start := time.Now()
			res, err := core.SweepSpilledOpts(context.Background(), g, pl, workers, core.SpillOptions{}, rrec)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: spilled sweep alpha %v T=%d: %w", wl.Alpha, workers, err)
			}
			if err := sameMergeStream(serial, res); err != nil {
				return nil, fmt.Errorf("bench: alpha %v T=%d: spilled sweep diverged: %w", wl.Alpha, workers, err)
			}
			if r == 0 || d < spilledNs {
				spilledNs = d
			}
		}
		for r := 0; r < repeats; r++ {
			pl := clonePairList(master)
			start := time.Now()
			res, err := core.SweepParallel(g, pl, workers)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: windowed sweep alpha %v T=%d: %w", wl.Alpha, workers, err)
			}
			if err := sameMergeStream(serial, res); err != nil {
				return nil, fmt.Errorf("bench: alpha %v T=%d: windowed sweep diverged: %w", wl.Alpha, workers, err)
			}
			if r == 0 || d < windowedNs {
				windowedNs = d
			}
		}

		// The ladder acceptance leg: the pair list over its budget through
		// the public facade — no fault injection.
		lrec := obs.New()
		lres, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{
			Workers:        workers,
			Recorder:       lrec,
			MemBudgetBytes: budget,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ladder run alpha %v T=%d: %w", wl.Alpha, workers, err)
		}
		spills := lrec.Counter(linkclust.CtrMemBudgetSpills)
		degrades := lrec.Counter(linkclust.CtrMemBudgetDegrades)
		if err := sameMergeStream(serial, lres); err != nil {
			return nil, fmt.Errorf("bench: alpha %v T=%d: ladder run diverged: %w", wl.Alpha, workers, err)
		}
		if spills != 1 || degrades != 0 {
			return nil, fmt.Errorf("bench: alpha %v T=%d: budget %d should spill exactly once (spills=%d degrades=%d)",
				wl.Alpha, workers, budget, spills, degrades)
		}

		row := outOfCoreResult{
			Alpha:          wl.Alpha,
			Edges:          g.NumEdges(),
			Pairs:          len(master.Pairs),
			PairKB:         kb(payload),
			Workers:        workers,
			SpillKB:        kb(rec.Counter(core.CtrSpillBytesWritten)),
			SpilledNs:      spilledNs.Nanoseconds(),
			WindowedNs:     windowedNs.Nanoseconds(),
			Overhead:       float64(spilledNs) / float64(windowedNs),
			Identical:      true,
			LadderBudgetKB: kb(budget),
			LadderSpills:   spills,
			LadderDegrades: degrades,
		}
		out = append(out, row)
		t.AddRow(wl.Alpha, row.Edges, row.Pairs, row.PairKB, workers,
			row.SpillKB,
			formatSeconds(spilledNs), formatSeconds(windowedNs),
			fmt.Sprintf("%.2fx", row.Overhead))
	}
	return out, nil
}

// sameMergeStream verifies that two sweep results carry bitwise-identical
// merge streams and final summaries.
func sameMergeStream(serial, par *core.Result) error {
	if len(par.Merges) != len(serial.Merges) {
		return fmt.Errorf("merge stream diverged: %d merges vs serial's %d", len(par.Merges), len(serial.Merges))
	}
	for i := range serial.Merges {
		if par.Merges[i] != serial.Merges[i] {
			return fmt.Errorf("merge stream diverged at %d: %+v vs serial's %+v", i, par.Merges[i], serial.Merges[i])
		}
	}
	if par.NumClusters() != serial.NumClusters() || par.PairsProcessed != serial.PairsProcessed {
		return fmt.Errorf("summary diverged: %d clusters / %d ops vs serial's %d / %d",
			par.NumClusters(), par.PairsProcessed, serial.NumClusters(), serial.PairsProcessed)
	}
	return nil
}
