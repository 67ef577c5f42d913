package core

import (
	"context"

	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Merge is one dendrogram event: at Level, clusters A and B fused into Into
// (= min(A, B)), following Eq. (5). For the strict (fine-grained) sweep the
// level increments by one per event; the coarse-grained algorithm emits the
// chunk counter instead, so several events may share a level.
type Merge struct {
	Level int32
	A, B  int32
	Into  int32
	Sim   float64 // similarity of the pair that triggered the merge
}

// Result is the output of a sweeping run.
type Result struct {
	// Merges is the dendrogram's merge stream in execution order.
	Merges []Merge
	// Chain is the final array C; Chain.Assignments() yields the bottom
	// partition reached by the run.
	Chain *Chain
	// Levels is the last level counter value (r in the paper).
	Levels int32
	// PairsProcessed counts incident edge pairs fed to MERGE.
	PairsProcessed int64
}

// NumClusters returns the number of clusters at the end of the run.
func (r *Result) NumClusters() int { return r.Chain.NumClusters() }

// Sweep runs Algorithm 2: sorts the pair list by non-increasing similarity
// and replays it, merging, for each vertex pair (U, V) and each common
// neighbor k, the clusters of edges (U, k) and (V, k). A pair's common
// neighbors are regenerated from g (see AppendOps). The pair list is sorted
// in place. An error is returned only if a pair's count N differs from the
// number of common neighbors its endpoints have in g, which indicates the
// list was built from a different graph. It is the reference the windowed
// engine is tested against: it checks every pair, where the engine trusts
// the counts past closure and for pairs whose endpoints are sealed into one
// cluster. SweepCtx is the instrumented, cancellable form.
func Sweep(g *graph.Graph, pl *PairList) (*Result, error) {
	return SweepCtx(context.Background(), g, pl, nil)
}

// SweepCtx is the serial sweep with cooperative cancellation and panic
// isolation: the context is checked once per sweepWindowOps incident-edge
// operations — the same window granularity as the parallel engines, so all
// sweeps share the one-window cancel-latency bound — and a panic inside the
// sort comparator surfaces as a *par.WorkerPanicError instead of crashing
// the process. Each context check is also a fault.CancelWindow injection hit.
// On error the pair list may be left partially sorted (its sorted flag stays
// accurate) and the partial Result is discarded.
func SweepCtx(ctx context.Context, g *graph.Graph, pl *PairList, rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	end := rec.Phase("sweep")
	defer end()
	endSort := rec.Phase("sort")
	serr := pl.SortWorkersCtx(ctx, par.DefaultCap())
	endSort()
	if serr != nil {
		return nil, serr
	}
	endMerge := rec.Phase("merge")
	defer endMerge()
	res = &Result{Chain: NewChain(g.NumEdges())}
	sinceCheck := 0
	var ops []Op
	for i := range pl.Pairs {
		if sinceCheck >= sweepWindowOps {
			sinceCheck = 0
			fault.Hit(fault.CancelWindow)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p := &pl.Pairs[i]
		ops = AppendOps(ops[:0], g, p.U, p.V)
		if n := int32(len(ops)); n != p.N {
			return nil, countMismatchError(p, n)
		}
		sinceCheck += len(ops)
		for _, op := range ops {
			res.PairsProcessed++
			if c1, c2, merged := res.Chain.Merge(op.E1, op.E2); merged {
				res.Levels++
				into := c1
				if c2 < into {
					into = c2
				}
				res.Merges = append(res.Merges, Merge{
					Level: res.Levels,
					A:     c1,
					B:     c2,
					Into:  into,
					Sim:   p.Sim,
				})
			}
		}
	}
	if rec != nil {
		rec.Add(CtrSweepPairsProcessed, res.PairsProcessed)
		rec.Add(CtrSweepChainRewrites, res.Chain.Changes())
		rec.Add(CtrSweepMerges, int64(len(res.Merges)))
	}
	return res, nil
}
