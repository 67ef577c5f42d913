// Package stream implements incremental link clustering over an edge
// stream: arrivals mutate a copy-on-write dynamic graph, only the similarity
// pairs an arrival can change are recomputed through the batch wedge kernel
// (one all-partners row per arrival endpoint), the fresh pairs are spliced
// into the maintained sorted pair list, and each Snapshot runs one
// fine-grained sweep over that list. The result is bitwise identical to a
// batch Similarity + Sweep run on the accumulated graph — that differential
// property, not speed, is the package's contract.
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
//  3. One sweep of the spliced list. Facts 1 and 2 make the spliced list
//     equal, element for element, to the batch list L sorted, so a sweep
//     of it from position 0 is the batch sweep (core.SweepParallelCtx):
//     a snapshot never reruns Phase I and never sorts.
package stream

import (
	"context"
	"fmt"
	"math"
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
	// CtrReplayedOps counts the sweep operations snapshots run: each
	// snapshot sweeps the whole maintained list, so it adds the list's op
	// count (K2).
	CtrReplayedOps = "stream.replayed_ops"
	// CtrCompactions is never recorded: snapshots have no batch fallback
	// any more. The name stays because benchmark readers still look it up;
	// the next benchmark change retires it.
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
// set, default workers.
type Options struct {
	// Workers is the worker count for row recomputation sorts and snapshot
	// sweeps, normalized like every parallel entry point.
	Workers int
	// Recorder receives the stream.* counters plus the phase timers and
	// counters of the underlying sweep runs. Nil records nothing.
	Recorder *obs.Recorder
	// MaxVertices fixes the vertex set to [0, MaxVertices) and rejects
	// arrivals outside it, mirroring graph.NewBuilder(n). Zero means the
	// vertex set grows on demand to max(U, V)+1.
	MaxVertices int
}

// Engine is the incremental clustering engine. All methods are safe for
// concurrent use; ingestion and snapshots serialize on one mutex, so a
// Snapshot observes either all or none of any concurrent IngestBatch.
type Engine struct {
	opt Options

	mu sync.Mutex
	g  *graph.Dynamic
	// h1/h2 are the maintained pass-1 norm arrays; entries go stale only for
	// vertices whose adjacency changed, which are exactly the pending set.
	h1, h2 []float64
	// rks holds one row kernel per refresh worker; each worker owns its
	// scratch, so recomputed rows stay pure functions of (graph, h1, h2).
	rks []*core.RowKernel
	// pl is the maintained pair list in list-L order and live its op count
	// (Σ len(Common), K2).
	pl   []core.Pair
	live int64
	// A spliced pair's Common aliases the kernel row PairsTouching allocated,
	// so one surviving pair pins its whole row, duplicates dropped at dedup
	// included. loose counts the Common ints spliced in since the last
	// re-pack; once it passes live/2, repackLocked copies every Common into
	// one exact-size arena. held bounds the Common ints the list keeps
	// reachable: the last re-pack's arena plus every kernel row since.
	// repacks counts re-packs, for tests.
	loose, held int64
	repacks     int
	// pending holds endpoints of applied-but-unrefreshed arrivals. Non-empty
	// only after a cancelled ingest; the next ingest or snapshot retries the
	// refresh (idempotent — rows recompute from the graph).
	pending map[int]struct{}

	// res caches the last snapshot until the next ingest.
	res *core.Result
}

// New returns an engine with the given options.
func New(opt Options) (*Engine, error) {
	if opt.MaxVertices < 0 {
		return nil, fmt.Errorf("stream: negative MaxVertices %d: %w", opt.MaxVertices, graph.ErrVertexRange)
	}
	e := &Engine{
		opt:     opt,
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
		e.res = nil
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
// endpoints and splices them into the maintained pair list. It commits only
// at the end: a cancellation mid-way leaves the old list and pending set in
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
	var rowInts, kept int64
	for i, r := range perD {
		d := int32(dset[i])
		for _, p := range r {
			rowInts += int64(len(p.Common))
			if o := p.U + p.V - d; inD[o] && o < d {
				continue
			}
			kept += int64(len(p.Common))
			fresh = append(fresh, p)
		}
	}
	if err := par.SortFuncCtx(ctx, fresh, workers, core.CmpPairs); err != nil {
		return err
	}

	// Splice in place, past the last cancellation point: drop the affected
	// rows' old pairs, then merge the fresh ones in from the back in list-L
	// order. A step allocates a new array only when the list outgrows its
	// capacity, so the list is not reallocated and refaulted per ingest.
	pl := e.pl
	live := e.live + kept
	j := 0
	for _, p := range pl {
		if inD[p.U] || inD[p.V] {
			live -= int64(len(p.Common))
			continue
		}
		pl[j] = p
		j++
	}
	old := len(pl)
	n := j + len(fresh)
	if n > cap(pl) {
		grown := make([]core.Pair, n, n+n/16)
		copy(grown, pl[:j])
		pl, old = grown, 0
	}
	pl = pl[:n]
	// Old pairs sit in pl[:i+1], the unmerged fresh ones in fresh[:f+1],
	// and k = i+f+1 is the next slot to fill, so a write never lands on an
	// old pair not yet moved. On a tie the old pair goes first, as in a
	// forward merge.
	i, f := j-1, len(fresh)-1
	for k := n - 1; f >= 0; k-- {
		if i >= 0 && core.CmpPairs(fresh[f], pl[i]) < 0 {
			pl[k] = pl[i]
			i--
		} else {
			pl[k] = fresh[f]
			f--
		}
	}
	// Slots past a shrunk end held old pairs; clearing them drops their
	// Common rows.
	if old > n {
		clear(pl[n:old])
	}

	// Commit.
	e.pl, e.live = pl, live
	e.loose += kept
	e.held += rowInts
	if 2*e.loose > e.live {
		e.repackLocked()
	}
	clear(e.pending)
	e.res = nil
	e.opt.Recorder.Add(CtrAffectedRows, int64(len(dset)))
	return nil
}

// repackLocked copies every Common list of the maintained list into one
// exact-size arena, in list order, releasing the kernel rows the spliced
// pairs pinned. Its O(K2) copy is amortized over the more than K2/2 ints
// spliced in since the previous re-pack, and the trigger reads op counts
// only, so re-packs land at the same ingests at every worker count.
func (e *Engine) repackLocked() {
	arena := make([]int32, e.live)
	off := 0
	for i := range e.pl {
		n := copy(arena[off:], e.pl[i].Common)
		e.pl[i].Common = arena[off : off+n : off+n]
		off += n
	}
	e.loose, e.held = 0, e.live
	e.repacks++
}

// CommonInts reports the maintained list's op count (live, one op per
// Common entry: K2) and an upper bound on the Common ints the list keeps
// reachable (held): the last re-pack's arena plus every kernel row
// allocated since.
func (e *Engine) CommonInts() (held, live int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.held, e.live
}

// Snapshot clusters the accumulated graph. See SnapshotCtx.
func (e *Engine) Snapshot() (*core.Result, error) {
	return e.SnapshotCtx(context.Background())
}

// SnapshotCtx returns the clustering of the graph accumulated so far — the
// merge stream, chain, and counters a batch Similarity + Sweep run on
// Graph() would produce, bitwise. It finishes any pending refresh, then runs
// one sweep of the maintained list from position 0: the list already is the
// batch list L in sorted order, so no Phase I and no sort run. Results are
// cached until the next successful ingest; callers must not mutate the
// returned Result. On cancellation the engine state is unchanged and the
// next call retries.
func (e *Engine) SnapshotCtx(ctx context.Context) (*core.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refreshLocked(ctx); err != nil {
		return nil, err
	}
	if e.res != nil {
		return e.res, nil
	}
	fault.Hit(fault.StreamSnapshot)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.SweepParallelCtx(ctx, e.g.Snapshot(), core.NewSortedPairList(e.pl), e.opt.Workers, e.opt.Recorder)
	if err != nil {
		return nil, err
	}
	e.opt.Recorder.Add(CtrReplayedOps, e.live)
	e.res = res
	return res, nil
}

// Graph returns an immutable snapshot of the accumulated graph.
func (e *Engine) Graph() *graph.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.g.Snapshot()
}
