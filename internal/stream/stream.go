// Package stream implements incremental link clustering over an edge
// stream: arrivals mutate a copy-on-write dynamic graph, only the similarity
// pairs an arrival can change are recomputed through the batch wedge kernel
// (one all-partners row per arrival endpoint), the fresh pairs are spliced
// into the maintained sorted pair list, and each Snapshot replays the
// fine-grained sweep from the earliest invalidated position using the
// engine's resumable checkpoints. The result is bitwise identical to a
// batch Similarity + Sweep run on the accumulated graph — that
// differential property, not speed, is the package's contract, and the
// batch path doubles as the compaction fallback when too much of the list
// has been invalidated for replay to pay off.
//
// Correctness rests on three facts established by the batch engines:
//
//  1. Row independence. The wedge kernel's row u is a pure function of the
//     graph and the norm arrays — never of other rows — so recomputing an
//     affected row reproduces exactly the row a full batch pass would emit.
//  2. Changed-pair closure. For arrival endpoint set D, a pair's
//     similarity, common list, or existence can change only if one of its
//     endpoints is in D — similarity reads nothing beyond the endpoints'
//     wedge weights and norms. The all-partners kernel
//     (core.RowKernel.PairsTouching) computes exactly those pairs, one
//     kernel row per endpoint, each bitwise identical to the batch row
//     enumeration's copy (see DESIGN.md §9; edges are never deleted, which
//     makes the post-arrival neighborhoods supersets of every intermediate
//     state and lets refreshes batch across arrivals). Every other pair in
//     the maintained list is untouched storage from earlier refreshes.
//  3. Sweep resumability. The sweep engine's behavior beyond a window
//     boundary is a pure function of the captured SweepState plus the pairs
//     beyond it, so replaying from a checkpoint at or below the splice's
//     first divergence reproduces the from-scratch merge stream bitwise
//     (core.SweepResumeCtx).
package stream

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"linkclust/internal/core"
	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Counter names recorded by the stream engine. All are pure functions of the
// arrival sequence and batching — never of the worker count — so they join
// the golden worker-invariant set.
const (
	// CtrAffectedRows counts similarity rows recomputed across refreshes —
	// one all-partners kernel row per distinct pending arrival endpoint.
	CtrAffectedRows = "stream.affected_rows"
	// CtrReplayedOps counts sweep operations replayed by snapshots (ops at
	// and above the resume checkpoint; a compaction counts the full list).
	CtrReplayedOps = "stream.replayed_ops"
	// CtrCompactions counts snapshots that fell back to the batch path.
	CtrCompactions = "stream.compactions"
	// CtrBatches counts successfully ingested arrival batches.
	CtrBatches = "stream.batches"
)

// Arrival is one streamed edge: endpoints and weight, validated exactly like
// graph.Builder.AddEdge. A repeated pair overwrites the weight (last write
// wins, keeping the original edge id).
type Arrival struct {
	U, V int
	W    float64
}

// Options configures an Engine. The zero value is usable: auto-grown vertex
// set, default workers, dirty-fraction compaction at one half.
type Options struct {
	// Workers is the worker count for row recomputation sorts and sweep
	// replays, normalized like every parallel entry point.
	Workers int
	// Recorder receives the stream.* counters plus the phase timers and
	// counters of the underlying similarity/sweep runs. Nil records nothing.
	Recorder *obs.Recorder
	// MaxVertices fixes the vertex set to [0, MaxVertices) and rejects
	// arrivals outside it, mirroring graph.NewBuilder(n). Zero means the
	// vertex set grows on demand to max(U, V)+1.
	MaxVertices int
	// CompactDirtyFraction triggers the batch fallback when the fraction of
	// sweep operations needing replay reaches it. Zero means the default of
	// 0.5; values above 1 never trigger on fraction.
	CompactDirtyFraction float64
}

const (
	defaultDirtyFraction = 0.5
	// defaultCheckpointEvery is the minimum operation spacing of sweep
	// checkpoints kept for future replays; checkpoints land only on the
	// engine's op-count window boundaries regardless.
	defaultCheckpointEvery = 32768
	// maxCheckpoints bounds the kept checkpoint list; past it, every other
	// interior checkpoint is dropped (deterministically, by index).
	maxCheckpoints = 16
)

// Engine is the incremental clustering engine. All methods are safe for
// concurrent use; ingestion and snapshots serialize on one mutex, so a
// Snapshot observes either all or none of any concurrent IngestBatch.
type Engine struct {
	opt   Options
	dirty float64

	mu sync.Mutex
	g  *graph.Dynamic
	// h1/h2 are the maintained pass-1 norm arrays; entries go stale only for
	// vertices whose adjacency changed, which are exactly the pending set.
	h1, h2 []float64
	// rks holds one row kernel per refresh worker; each worker owns its
	// scratch, so recomputed rows stay pure functions of (graph, h1, h2).
	rks []*core.RowKernel
	// pl is the maintained pair list in list-L order; ckpts are sweep states
	// valid against it, ascending by Pos (the last one, when clean, is the
	// final state of the last sweep: its closing window's end).
	pl    []core.Pair
	ckpts []core.SweepState
	// pending holds endpoints of applied-but-unrefreshed arrivals. Non-empty
	// only after a cancelled ingest; the next ingest or snapshot retries the
	// refresh (idempotent — rows recompute from the graph).
	pending map[int]struct{}

	// snap/res cache the last snapshot; valid while clean.
	clean bool
	snap  *graph.Graph
	res   *core.Result
}

// New returns an engine with the given options.
func New(opt Options) (*Engine, error) {
	if opt.MaxVertices < 0 {
		return nil, fmt.Errorf("stream: negative MaxVertices %d: %w", opt.MaxVertices, graph.ErrVertexRange)
	}
	dirty := opt.CompactDirtyFraction
	if dirty == 0 {
		dirty = defaultDirtyFraction
	}
	if dirty < 0 || math.IsNaN(dirty) {
		return nil, fmt.Errorf("stream: invalid CompactDirtyFraction %v", opt.CompactDirtyFraction)
	}
	e := &Engine{
		opt:     opt,
		dirty:   dirty,
		g:       graph.NewDynamic(),
		pending: make(map[int]struct{}),
	}
	if opt.MaxVertices > 0 {
		if err := e.g.EnsureVertices(opt.MaxVertices); err != nil {
			return nil, err
		}
		e.growLocked(opt.MaxVertices)
	}
	return e, nil
}

// Ingest applies one arrival. See IngestBatchCtx.
func (e *Engine) Ingest(u, v int, w float64) error {
	return e.IngestBatchCtx(context.Background(), []Arrival{{U: u, V: v, W: w}})
}

// IngestCtx is Ingest with cancellation.
func (e *Engine) IngestCtx(ctx context.Context, u, v int, w float64) error {
	return e.IngestBatchCtx(ctx, []Arrival{{U: u, V: v, W: w}})
}

// IngestBatch applies a batch of arrivals. See IngestBatchCtx.
func (e *Engine) IngestBatch(batch []Arrival) error {
	return e.IngestBatchCtx(context.Background(), batch)
}

// IngestBatchCtx validates and applies a batch of arrivals, then refreshes
// the affected similarity rows. Validation is atomic: if any arrival is
// invalid (endpoints out of range, self-loop, non-positive/non-finite
// weight — the graph.Builder rules, as typed errors wrapping
// graph.ErrVertexRange, graph.ErrSelfLoop, or graph.ErrBadWeight), no
// arrival of the batch is applied. On cancellation mid-refresh the graph
// mutation stays applied and the endpoints stay pending, so the engine
// remains valid: the next ingest or snapshot completes the refresh before
// using the pair list.
func (e *Engine) IngestBatchCtx(ctx context.Context, batch []Arrival) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	fault.Hit(fault.StreamIngest)
	if err := ctx.Err(); err != nil {
		return err
	}
	// Validate the whole batch against the post-batch vertex count before
	// touching anything.
	n := e.g.NumVertices()
	for _, a := range batch {
		if a.U < 0 || a.V < 0 || (e.opt.MaxVertices > 0 && (a.U >= n || a.V >= n)) {
			return fmt.Errorf("graph: edge (%d,%d) outside [0,%d): %w", a.U, a.V, n, graph.ErrVertexRange)
		}
		if a.U == a.V {
			return fmt.Errorf("graph: edge (%d,%d): %w", a.U, a.V, graph.ErrSelfLoop)
		}
		if !(a.W > 0) || math.IsInf(a.W, 1) {
			return fmt.Errorf("graph: edge (%d,%d) weight %v (must be positive and finite): %w", a.U, a.V, a.W, graph.ErrBadWeight)
		}
		if e.opt.MaxVertices == 0 {
			if m := max(a.U, a.V) + 1; m > n {
				n = m
			}
		}
	}
	if n > e.g.NumVertices() {
		if err := e.g.EnsureVertices(n); err != nil {
			return err
		}
	}
	for _, a := range batch {
		if _, _, err := e.g.AddEdge(a.U, a.V, a.W); err != nil {
			// Unreachable: the batch was validated above.
			panic(fmt.Sprintf("stream: validated arrival rejected: %v", err))
		}
		e.pending[a.U] = struct{}{}
		e.pending[a.V] = struct{}{}
	}
	if len(batch) > 0 {
		e.clean = false
		e.opt.Recorder.Add(CtrBatches, 1)
	}
	return e.refreshLocked(ctx)
}

// growLocked resizes the norm arrays and row kernel to n vertices,
// preserving existing entries.
func (e *Engine) growLocked(n int) {
	if n <= len(e.h1) {
		return
	}
	h1 := make([]float64, n)
	h2 := make([]float64, n)
	copy(h1, e.h1)
	copy(h2, e.h2)
	e.h1, e.h2 = h1, h2
}

// refreshLocked recomputes the similarity rows invalidated by the pending
// endpoints and splices them into the maintained pair list, pruning sweep
// checkpoints past the first divergence. It commits only at the end: a
// cancellation mid-way leaves the old list, checkpoints, and pending set in
// place (norm entries of pending vertices may already be refreshed, which is
// harmless — they are recomputed from the current graph, and only rows
// computed in the same successful refresh read them).
func (e *Engine) refreshLocked(ctx context.Context) error {
	if len(e.pending) == 0 {
		return nil
	}
	g := e.g.Snapshot()
	e.growLocked(g.NumVertices())

	// Endpoint norms first: the recomputed rows below read them.
	dset := make([]int, 0, len(e.pending))
	for d := range e.pending {
		dset = append(dset, d)
	}
	sort.Ints(dset)
	for _, d := range dset {
		core.VertexNorms(g, e.h1, e.h2, d, d+1)
	}

	// A pair can change only if an endpoint is in D: its similarity reads
	// the wedge weights and norms of its endpoints alone, and its common
	// list (like its existence) changes only through an edge incident to an
	// endpoint (DESIGN.md §9). So the changed pairs are exactly the pairs
	// involving D, and the all-partners kernel computes each one bitwise
	// identically to the row enumeration whichever endpoint it runs from —
	// one kernel row per distinct arrival endpoint.
	inD := make([]bool, g.NumVertices())
	for _, d := range dset {
		inD[d] = true
	}

	// Recompute in parallel. Rows are pure functions of (graph, norms), so
	// workers claiming endpoints dynamically and landing results by index
	// keeps the output deterministic regardless of scheduling; the context
	// is polled at claim boundaries so a cancelled ingest stays responsive.
	workers := par.NormalizeCap(e.opt.Workers, len(dset))
	for len(e.rks) < workers {
		e.rks = append(e.rks, core.NewRowKernel(0))
	}
	perD := make([][]core.Pair, len(dset))
	if err := func() (err error) {
		defer par.RecoverPanicError(&err)
		var next atomic.Int64
		par.Run(workers, func(t int, aborted func() bool) {
			const chunk = 8
			rk := e.rks[t]
			rk.Grow(g.NumVertices())
			for {
				hi := int(next.Add(chunk))
				lo := hi - chunk
				if lo >= len(dset) || aborted() || ctx.Err() != nil {
					return
				}
				if hi > len(dset) {
					hi = len(dset)
				}
				for i := lo; i < hi; i++ {
					perD[i] = rk.PairsTouching(g, dset[i], e.h1, e.h2)
				}
			}
		})
		return nil
	}(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Collect, dropping the duplicate copy of pairs with both endpoints in D
	// (both endpoints' kernels emit them, bitwise equal; the lower endpoint's
	// copy is kept).
	nfresh := 0
	for _, r := range perD {
		nfresh += len(r)
	}
	fresh := make([]core.Pair, 0, nfresh)
	for i, r := range perD {
		d := int32(dset[i])
		for _, p := range r {
			if o := p.U + p.V - d; inD[o] && o < d {
				continue
			}
			fresh = append(fresh, p)
		}
	}
	if err := par.SortFuncCtx(ctx, fresh, workers, core.CmpPairs); err != nil {
		return err
	}

	// Splice: drop the affected rows' old pairs, merge the fresh ones in
	// list-L order, and find the first index where the new list diverges.
	newPl := make([]core.Pair, 0, len(e.pl)+len(fresh))
	divergence := -1
	fi := 0
	for _, p := range e.pl {
		if inD[p.U] || inD[p.V] {
			continue
		}
		for fi < len(fresh) && core.CmpPairs(fresh[fi], p) < 0 {
			newPl = appendTracked(newPl, fresh[fi], e.pl, &divergence)
			fi++
		}
		newPl = appendTracked(newPl, p, e.pl, &divergence)
	}
	for ; fi < len(fresh); fi++ {
		newPl = appendTracked(newPl, fresh[fi], e.pl, &divergence)
	}
	if divergence < 0 {
		divergence = min(len(newPl), len(e.pl))
	}

	// Commit.
	e.pl = newPl
	for len(e.ckpts) > 0 && e.ckpts[len(e.ckpts)-1].Pos > divergence {
		e.ckpts = e.ckpts[:len(e.ckpts)-1]
	}
	clear(e.pending)
	e.clean = false
	e.snap, e.res = nil, nil
	e.opt.Recorder.Add(CtrAffectedRows, int64(len(dset)))
	return nil
}

// appendTracked appends p to dst, recording in *div the first position where
// dst stops matching old element-wise.
func appendTracked(dst []core.Pair, p core.Pair, old []core.Pair, div *int) []core.Pair {
	if *div < 0 {
		i := len(dst)
		if i >= len(old) || !samePair(&old[i], &p) {
			*div = i
		}
	}
	return append(dst, p)
}

// samePair reports bitwise pair equality. Common lists are compared by
// content with an aliasing fast path: an unchanged row keeps its old arena
// slices, so most survivors compare by pointer.
func samePair(a, b *core.Pair) bool {
	if a.U != b.U || a.V != b.V || math.Float64bits(a.Sim) != math.Float64bits(b.Sim) {
		return false
	}
	if len(a.Common) != len(b.Common) {
		return false
	}
	if len(a.Common) == 0 || &a.Common[0] == &b.Common[0] {
		return true
	}
	return slices.Equal(a.Common, b.Common)
}

// Snapshot clusters the accumulated graph. See SnapshotCtx.
func (e *Engine) Snapshot() (*core.Result, error) {
	return e.SnapshotCtx(context.Background())
}

// SnapshotCtx returns the clustering of the graph accumulated so far — the
// merge stream, chain, and counters a batch Similarity + Sweep run on Graph() would
// produce, bitwise. It replays the sweep from the deepest checkpoint still
// valid after the last splice, unless the compaction trigger fires, in which
// case it recomputes the pair list through the batch similarity path (the
// correctness oracle) and rebuilds the checkpoints from scratch. Results are
// cached until the next successful ingest; callers must not mutate the
// returned Result. On cancellation the engine state is unchanged and the
// next call retries.
func (e *Engine) SnapshotCtx(ctx context.Context) (*core.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refreshLocked(ctx); err != nil {
		return nil, err
	}
	if e.clean && e.res != nil {
		return e.res, nil
	}
	g := e.g.Snapshot()
	rec := e.opt.Recorder

	// Decide replay vs compaction from the op counts, which are pure
	// functions of the arrival history — never of workers or timing.
	var from *core.SweepState
	if len(e.ckpts) > 0 {
		from = &e.ckpts[len(e.ckpts)-1]
	}
	total := opsIn(e.pl, 0)
	replay := total
	if from != nil {
		replay = opsIn(e.pl, from.Pos)
	}
	compact := total > 0 && float64(replay)/float64(total) >= e.dirty

	// defaultCheckpointEvery is a *minimum* spacing: on large lists it is
	// raised so one pass captures at most maxCheckpoints states. Each capture
	// deep-copies the chain and merge stream (O(|E| + K1)), so a fixed
	// spacing would make checkpointing quadratic in list size across a
	// replay.
	saveEvery := int64(defaultCheckpointEvery)
	if adaptive := total / maxCheckpoints; saveEvery < adaptive {
		saveEvery = adaptive
	}
	var ckpts []core.SweepState
	save := func(s core.SweepState, _ bool) { ckpts = append(ckpts, s) }
	var res *core.Result
	if compact {
		fault.Hit(fault.StreamCompact)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pl, err := core.SimilarityCtx(ctx, g, e.opt.Workers, rec)
		if err != nil {
			return nil, err
		}
		res, err = core.SweepResumeCtx(ctx, g, pl, nil, e.opt.Workers, int(saveEvery), save, rec)
		if err != nil {
			return nil, err
		}
		// The batch list is the oracle the maintained list must equal; adopt
		// it (same content, freshly compacted storage).
		e.pl = pl.Pairs
		e.ckpts = thinCheckpoints(ckpts)
		rec.Add(CtrCompactions, 1)
		rec.Add(CtrReplayedOps, total)
	} else {
		// A checkpoint captured against a shorter edge set extends with
		// identity entries: ops below its position involve only edges that
		// existed when it was taken, so later edges are still singletons
		// there, exactly as in a from-scratch run.
		if from != nil && len(from.Chain) < g.NumEdges() {
			st := *from
			chain := make([]int32, g.NumEdges())
			copy(chain, st.Chain)
			for i := len(st.Chain); i < len(chain); i++ {
				chain[i] = int32(i)
			}
			st.Chain = chain
			from = &st
		}
		var err error
		res, err = core.SweepResumeCtx(ctx, g, core.NewSortedPairList(e.pl), from, e.opt.Workers, int(saveEvery), save, rec)
		if err != nil {
			return nil, err
		}
		// Checkpoints at or below the resume point stay valid for the
		// current list; the replay's saves extend past them.
		merged := append([]core.SweepState{}, e.ckpts...)
		floor := -1
		if from != nil {
			floor = from.Pos
		}
		for _, s := range ckpts {
			if s.Pos > floor {
				merged = append(merged, s)
			}
		}
		e.ckpts = thinCheckpoints(merged)
		rec.Add(CtrReplayedOps, replay)
	}
	e.snap, e.res = g, res
	e.clean = true
	return res, nil
}

// Graph returns an immutable snapshot of the accumulated graph.
func (e *Engine) Graph() *graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.g.Snapshot()
}

// opsIn sums the incident-operation counts of pairs at and above pos.
func opsIn(pl []core.Pair, pos int) int64 {
	var n int64
	for i := pos; i < len(pl); i++ {
		n += int64(len(pl[i].Common))
	}
	return n
}

// thinCheckpoints deterministically caps the checkpoint list: while too
// long, every other interior checkpoint is dropped (the final state is
// always kept).
func thinCheckpoints(cks []core.SweepState) []core.SweepState {
	for len(cks) > maxCheckpoints {
		out := cks[:0]
		for i := 0; i < len(cks)-1; i += 2 {
			out = append(out, cks[i])
		}
		out = append(out, cks[len(cks)-1])
		cks = out
	}
	return cks
}
