package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"linkclust/internal/core"
	"linkclust/internal/obs"
)

// kernelsResult is one α row of the kernel-equivalence smoke run.
type kernelsResult struct {
	Alpha         float64 `json:"alpha"`
	Vertices      int     `json:"vertices"`
	Edges         int     `json:"edges"`
	Pairs         int     `json:"pairs"`          // K1
	IncidentPairs int64   `json:"incident_pairs"` // K2

	PlainNs       int64 `json:"plain_ns"`        // wedge-major similarity
	SweepSerialNs int64 `json:"sweep_serial_ns"` // serial claim-scan sweep
	SweepCASNs    int64 `json:"sweep_cas_ns"`    // CAS min-reservation sweep, T=8

	// CASRounds counts rounds the T=8 run scheduled through the lock-free
	// CAS path; zero would mean the path under test never executed.
	CASRounds int64 `json:"cas_rounds"`
	// Engine is what -engine auto selects for this row at T=8 here.
	Engine string `json:"engine"`
}

// kernelsReport is the BENCH_kernels.json document.
type kernelsReport struct {
	Schema    string            `json:"schema"`
	Name      string            `json:"name"`
	CreatedAt time.Time         `json:"created_at"`
	Meta      map[string]string `json:"meta"`
	Results   []kernelsResult   `json:"results"`
}

// Kernels is the self-validating smoke run for the CAS sweep scheduler: per
// fraction α it checks that the parallel wedge kernel at T=8 reproduces the
// serial kernel's pair list bitwise, and that the CAS min-reservation sweep
// at T=8 reproduces the serial merge stream bitwise while actually
// scheduling rounds through the CAS path. Any divergence fails the
// experiment, so a green run — e.g. the CI smoke step — certifies the
// equivalences on real workloads, not just unit fixtures. Timings are
// reported for orientation only; sweepkernel/simkernel own the measurements.
func Kernels(w io.Writer, cfg Config) error {
	// The CAS scheduler needs ≥2 effective workers, and par.Normalize clamps
	// requested worker counts to GOMAXPROCS. On a single-core runner T=8
	// would silently collapse to the serial claim scan and this experiment
	// would certify nothing — so raise GOMAXPROCS for the duration.
	if old := runtime.GOMAXPROCS(0); old < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(old)
	}
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "kernels: parallel similarity and CAS sweep vs their serial baselines (bitwise)",
		Columns: []string{"alpha", "K1", "K2", "similarity", "sweep", "cas(T=8)", "cas-rounds", "auto-engine"},
		Notes: []string{
			"T=8 wedge pair list compared bitwise to the serial kernel before timing is accepted",
			"CAS merge stream compared bitwise to the serial sweep; cas-rounds > 0 proves the lock-free path ran",
			fmt.Sprintf("this machine exposes %d CPU core(s); GOMAXPROCS raised to 8 so the CAS path is exercised", runtime.NumCPU()),
		},
	}
	report := &kernelsReport{
		Schema:    BenchSchemaV1,
		Name:      "kernels",
		CreatedAt: time.Now().UTC(),
		Meta: map[string]string{
			"repeats": fmt.Sprintf("%d", cfg.Repeats),
			"cpus":    fmt.Sprintf("%d", runtime.NumCPU()),
		},
	}
	for _, wl := range wls {
		g := wl.Graph
		end := cfg.Obs.Phase(fmt.Sprintf("kernels-alpha-%g", wl.Alpha))
		var plain *core.PairList
		plainNs := timeIt(cfg.Repeats, func() { plain = core.Similarity(g) })
		if err := samePairList(plain, core.SimilarityParallel(g, 8)); err != nil {
			end()
			return fmt.Errorf("bench: alpha %v: parallel similarity (T=8): %w", wl.Alpha, err)
		}
		plain.Sort() // both sweeps sort in place; hoist the shared cost
		var serial *core.Result
		serialNs := timeIt(cfg.Repeats, func() {
			r, err2 := core.Sweep(g, plain)
			if err2 != nil {
				err = err2
				return
			}
			serial = r
		})
		if err != nil {
			end()
			return fmt.Errorf("bench: serial sweep at alpha %v: %w", wl.Alpha, err)
		}
		rec := obs.New()
		var cas *core.Result
		casNs := timeIt(cfg.Repeats, func() {
			r, err2 := core.SweepParallelCtx(context.Background(), g, plain, 8, rec)
			if err2 != nil {
				err = err2
				return
			}
			cas = r
		})
		end()
		if err != nil {
			return fmt.Errorf("bench: CAS sweep at alpha %v: %w", wl.Alpha, err)
		}
		if err := sameMergeStream(serial, cas); err != nil {
			return fmt.Errorf("bench: alpha %v: CAS sweep: %w", wl.Alpha, err)
		}
		res := kernelsResult{
			Alpha:         wl.Alpha,
			Vertices:      g.NumVertices(),
			Edges:         g.NumEdges(),
			Pairs:         len(plain.Pairs),
			IncidentPairs: plain.NumIncidentPairs(),
			PlainNs:       plainNs.Nanoseconds(),
			SweepSerialNs: serialNs.Nanoseconds(),
			SweepCASNs:    casNs.Nanoseconds(),
			CASRounds:     rec.Counter(core.CtrSweepCASRounds),
			Engine:        core.ChooseSweepEngine(plain.NumIncidentPairs(), 8, false),
		}
		report.Results = append(report.Results, res)
		t.AddRow(wl.Alpha, res.Pairs, res.IncidentPairs,
			formatSeconds(plainNs),
			formatSeconds(serialNs), formatSeconds(casNs),
			res.CASRounds, res.Engine)
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

// samePairList verifies that two similarity pair lists are bitwise identical:
// same order, same endpoints, same float64 similarity bits, same shared
// neighbor lists.
func samePairList(want, got *core.PairList) error {
	if len(got.Pairs) != len(want.Pairs) {
		return fmt.Errorf("pair list diverged: %d pairs vs baseline's %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		a, b := &want.Pairs[i], &got.Pairs[i]
		if a.U != b.U || a.V != b.V {
			return fmt.Errorf("pair %d diverged: (%d,%d) vs baseline's (%d,%d)", i, b.U, b.V, a.U, a.V)
		}
		if math.Float64bits(a.Sim) != math.Float64bits(b.Sim) {
			return fmt.Errorf("pair %d (%d,%d) similarity bits diverged: %x vs baseline's %x",
				i, a.U, a.V, math.Float64bits(b.Sim), math.Float64bits(a.Sim))
		}
		if len(a.Common) != len(b.Common) {
			return fmt.Errorf("pair %d (%d,%d) common-neighbor count diverged: %d vs baseline's %d",
				i, a.U, a.V, len(b.Common), len(a.Common))
		}
		for k := range a.Common {
			if a.Common[k] != b.Common[k] {
				return fmt.Errorf("pair %d (%d,%d) common neighbor %d diverged: %d vs baseline's %d",
					i, a.U, a.V, k, b.Common[k], a.Common[k])
			}
		}
	}
	return nil
}
