package bench

import (
	"fmt"
	"io"
	"time"

	"linkclust/internal/baseline"
	"linkclust/internal/core"
	"linkclust/internal/graph"
)

// Fig4_1 reproduces Fig. 4(1): graph statistics per fraction α — vertex and
// edge counts, the number of vertex pairs on list L (K1), the number of
// distinct incident edge pairs (K2), and the density trend the paper calls
// out in the text.
func Fig4_1(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Fig 4(1): word-association graph statistics vs fraction α",
		Columns: []string{"alpha", "nodes", "edges", "vertex-pairs(K1)", "edge-pairs(K2)", "density"},
		Notes: []string{
			"paper: density decreases in α (1.0, 0.997, 0.963, 0.332, 0.136); K2 dominates |E| by 2~4 orders of magnitude",
		},
	}
	for _, wl := range wls {
		s := graph.ComputeStats(wl.Graph)
		t.AddRow(wl.Alpha, s.Vertices, s.Edges, s.K1, s.K2, s.Density)
	}
	t.Fprint(w)
	return nil
}

// copyPairs clones the pair list so repeated sweeps can re-sort without
// mutating the caller's list.
func copyPairs(pl *core.PairList) *core.PairList {
	return &core.PairList{Pairs: append([]core.Pair(nil), pl.Pairs...)}
}

// Fig4_2 reproduces Fig. 4(2): serial execution time of the initialization
// phase, the sweeping algorithm, and the standard O(|E|²) algorithm, plus
// the speedup the paper quotes (2.0 / 40.0 / 74.2 for the three fractions
// the standard algorithm finished).
func Fig4_2(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Fig 4(2): serial execution time vs fraction α",
		Columns: []string{"alpha", "edges", "init", "sweeping", "standard(NBM)", "speedup(std/sweep)"},
		Notes: []string{
			"paper: sweeping ≈ init across α; standard only finishes on the three smallest fractions with speedups 2.0, 40.0, 74.2",
			fmt.Sprintf("standard algorithm attempted only at |E| <= %d (dense-matrix bound)", cfg.MaxStandardEdges),
		},
	}
	for _, wl := range wls {
		g := wl.Graph
		var pl *core.PairList
		initTime := timeIt(cfg.Repeats, func() { pl = core.Similarity(g) })

		var sweepTime time.Duration
		sweepTime = timeIt(cfg.Repeats, func() {
			if _, err := core.Sweep(g, copyPairs(pl)); err != nil {
				panic(err)
			}
		})

		stdCell, speedCell := "-", "-"
		if g.NumEdges() <= cfg.MaxStandardEdges && g.NumEdges() <= baseline.MaxNBMEdges {
			es := baseline.NewEdgeSim(g, pl)
			stdTime := timeIt(cfg.Repeats, func() {
				if _, err := baseline.NBM(es); err != nil {
					panic(err)
				}
			})
			stdCell = formatSeconds(stdTime)
			if sweepTime > 0 {
				speedCell = formatFloat(float64(stdTime) / float64(sweepTime))
			}
		}
		t.AddRow(wl.Alpha, g.NumEdges(), initTime, sweepTime, stdCell, speedCell)
	}
	t.Fprint(w)
	return nil
}

// Fig4_3 reproduces Fig. 4(3): memory usage of the sweeping algorithm
// versus the standard algorithm. We report retained heap bytes (the paper
// reports virtual memory; the ordering conclusion is the same). Standard
// runs beyond the dense-matrix bound are projected analytically as 8·|E|²
// matrix bytes.
func Fig4_3(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Fig 4(3): memory usage vs fraction α (KB)",
		Columns: []string{"alpha", "edges", "sweeping-KB", "standard-KB"},
		Notes: []string{
			"paper at α=0.001: standard 19.9 GB vs sweeping 881.2 MB",
			"standard entries marked (proj) are the analytic 8|E|² matrix size where the run would not fit",
		},
	}
	for _, wl := range wls {
		g := wl.Graph
		sweepBytes, _ := retainedBytes(func() any {
			pl := core.Similarity(g)
			res, err := core.Sweep(g, pl)
			if err != nil {
				panic(err)
			}
			return [2]any{pl, res}
		})

		stdCell := ""
		if g.NumEdges() <= cfg.MaxStandardEdges && g.NumEdges() <= baseline.MaxNBMEdges {
			stdBytes, _ := retainedBytes(func() any {
				pl := core.Similarity(g)
				es := baseline.NewEdgeSim(g, pl)
				res, err := baseline.NBM(es)
				if err != nil {
					panic(err)
				}
				return [3]any{pl, es, res}
			})
			stdCell = cell(kb(stdBytes))
		} else {
			m := int64(g.NumEdges())
			stdCell = fmt.Sprintf("%d (proj)", kb(8*m*m))
		}
		t.AddRow(wl.Alpha, g.NumEdges(), kb(sweepBytes), stdCell)
	}
	t.Fprint(w)
	return nil
}
