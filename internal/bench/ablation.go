package bench

import (
	"io"

	"linkclust/internal/baseline"
	"linkclust/internal/core"
	"linkclust/internal/unionfind"
)

// Ablation quantifies the design choices DESIGN.md calls out, on one
// mid-size workload:
//
//   - the chain array C versus classic union-find on the same merge stream
//     (the chain pays full-chain rewrites in exchange for min-canonical
//     labels and §VI-B replica mergeability);
//   - the single-linkage algorithm family: the paper's sweep versus NBM,
//     SLINK, the Gower–Ross MST construction, and generic O(n³) HAC — all
//     computing the same dendrogram at very different costs.
func Ablation(w io.Writer, cfg Config) error {
	wls, err := BuildWorkloads(cfg)
	if err != nil {
		return err
	}
	// A workload small enough that the dense baselines fit.
	var wl Workload
	for _, cand := range wls {
		if cand.Graph.NumEdges() <= cfg.MaxStandardEdges && cand.Graph.NumEdges() <= baseline.MaxNBMEdges {
			wl = cand
		}
	}
	if wl.Graph == nil {
		wl = wls[0]
	}
	g := wl.Graph
	pl := core.Similarity(g)
	pl.Sort()

	// Resolve the sweep's merge-op stream once.
	var ops [][2]int32
	var pairOps []core.Op
	for i := range pl.Pairs {
		p := &pl.Pairs[i]
		pairOps = core.AppendOps(pairOps[:0], g, p.U, p.V)
		for _, op := range pairOps {
			ops = append(ops, [2]int32{op.E1, op.E2})
		}
	}
	m := g.NumEdges()

	t1 := &Table{
		Title:   "Ablation A: chain array C vs union-find on the real merge stream",
		Columns: []string{"structure", "time", "notes"},
		Notes: []string{
			"same K2 merge operations in sorted order; the chain's extra cost buys min-canonical labels and §VI-B replica merging",
		},
	}
	t1.AddRow("chain (paper)", timeIt(cfg.Repeats, func() {
		ch := core.NewChain(m)
		for _, op := range ops {
			ch.Merge(op[0], op[1])
		}
	}), "full-chain rewrites per merge")
	t1.AddRow("union-find (min)", timeIt(cfg.Repeats, func() {
		uf := unionfind.NewMin(m)
		for _, op := range ops {
			uf.Union(op[0], op[1])
		}
	}), "min labels, lazy compression")
	t1.AddRow("union-find (rank)", timeIt(cfg.Repeats, func() {
		uf := unionfind.NewRanked(m)
		for _, op := range ops {
			uf.Union(op[0], op[1])
		}
	}), "arbitrary labels")
	t1.Fprint(w)

	t2 := &Table{
		Title:   "Ablation B: single-linkage algorithm family (same dendrogram)",
		Columns: []string{"algorithm", "complexity", "time"},
	}
	es := baseline.NewEdgeSim(g, pl)
	t2.AddRow("sweeping (paper)", "O(|V|+K1·logK1+√K2·|E|)", timeIt(cfg.Repeats, func() {
		if _, err := core.Sweep(g, copyPairs(pl)); err != nil {
			panic(err)
		}
	}))
	t2.AddRow("MST (Gower-Ross)", "O(K2 log K2)", timeIt(cfg.Repeats, func() {
		_ = baseline.MST(es)
	}))
	if g.NumEdges() <= baseline.MaxNBMEdges {
		t2.AddRow("NBM (standard)", "O(|E|^2)", timeIt(cfg.Repeats, func() {
			if _, err := baseline.NBM(es); err != nil {
				panic(err)
			}
		}))
		t2.AddRow("SLINK", "O(|E|^2), O(|E|) mem", timeIt(cfg.Repeats, func() {
			_ = baseline.SLINK(es)
		}))
		if g.NumEdges() <= 2500 {
			t2.AddRow("generic HAC", "O(|E|^3)", timeIt(1, func() {
				if _, err := baseline.HAC(es, baseline.SingleLinkage); err != nil {
					panic(err)
				}
			}))
		}
	}
	t2.Notes = append(t2.Notes,
		"all rows compute identical flat clusterings at every threshold (cross-validated in internal/baseline tests)")
	t2.Fprint(w)
	return nil
}
