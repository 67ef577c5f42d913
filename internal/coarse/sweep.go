package coarse

import (
	"context"
	"fmt"
	"slices"

	"linkclust/internal/core"
	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/obs"
	"linkclust/internal/par"
)

// Counter names this package records into an obs.Recorder.
const (
	// CtrLevels counts committed dendrogram levels.
	CtrLevels = "coarse.levels"
	// CtrEpochs counts all epochs (committed, rolled back, reused).
	CtrEpochs = "coarse.epochs"
	// CtrRollbacks counts aborted epochs.
	CtrRollbacks = "coarse.rollbacks"
	// CtrReuses counts levels committed from saved rollback states.
	CtrReuses = "coarse.reuses"
	// CtrOpsProcessed counts incident edge pairs processed toward the
	// final state.
	CtrOpsProcessed = "coarse.ops_processed"
	// CtrOpsWasted counts incident edge pairs processed in rolled-back
	// epochs.
	CtrOpsWasted = "coarse.ops_wasted"
	// CtrChainRewrites counts array-C entry rewrites, including replica
	// work — the Fig. 2(1) quantity for the coarse-grained sweep.
	CtrChainRewrites = "coarse.chain_rewrites"
	// CtrReplicaClones counts array-C replicas cloned for parallel chunk
	// processing (Section VI-B).
	CtrReplicaClones = "coarse.replica_clones"
	// CtrReplicaMerges counts pairwise replica combinations
	// (core.MergeChains folds).
	CtrReplicaMerges = "coarse.replica_merges"
)

// Params configures the coarse-grained sweep. The triple (γ, φ, δ0) defines
// the shape of the produced dendrogram (Section V-A); η0 and Workers tune
// execution.
type Params struct {
	// Gamma is the maximum allowed ratio of cluster counts between
	// consecutive levels (γ > 1). The target merge rate is γ̃ = (1+γ)/2.
	Gamma float64
	// Phi stops the sweep once at most this many clusters remain (φ ≥ 1).
	Phi int
	// Delta0 is the initial chunk size in incident edge pairs (δ0 ≥ 1).
	Delta0 int64
	// Eta0 is the initial head-mode growth factor (η0 > 1); each
	// head→rollback transition halves η-1.
	Eta0 float64
	// GammaTilde is the target merge rate chunk estimation steers toward,
	// in (1, Gamma]. Zero selects the paper's choice, (1+γ)/2.
	GammaTilde float64
	// Workers > 1 processes each chunk with that many replicas of array C
	// merged via the corrected scheme of Section VI-B. The value is
	// normalized at Sweep entry like every parallel entry point: values
	// below 1 run serially, values above max(runtime.GOMAXPROCS(0), runtime.NumCPU()) are
	// clamped to that cap, and each chunk additionally clamps its worker
	// count to the chunk's operation count so near-empty partitions never
	// pay per-replica clone cost.
	Workers int
}

// DefaultParams returns the paper's experimental setting: γ = 2, φ = 100,
// δ0 = 1000, η0 = 8, serial execution.
func DefaultParams() Params {
	return Params{Gamma: 2, Phi: 100, Delta0: 1000, Eta0: 8, Workers: 1}
}

func (p Params) validate() error {
	switch {
	case p.Gamma <= 1:
		return fmt.Errorf("coarse: Gamma must exceed 1, got %v", p.Gamma)
	case p.Phi < 1:
		return fmt.Errorf("coarse: Phi must be at least 1, got %d", p.Phi)
	case p.Delta0 < 1:
		return fmt.Errorf("coarse: Delta0 must be at least 1, got %d", p.Delta0)
	case p.Eta0 <= 1:
		return fmt.Errorf("coarse: Eta0 must exceed 1, got %v", p.Eta0)
	case p.GammaTilde != 0 && (p.GammaTilde <= 1 || p.GammaTilde > p.Gamma):
		return fmt.Errorf("coarse: GammaTilde must be in (1, Gamma], got %v", p.GammaTilde)
	default:
		return nil
	}
}

// EpochKind classifies an epoch for the Fig. 5(1) breakdown.
type EpochKind int

const (
	// EpochHeadFresh is a committed level computed in head mode.
	EpochHeadFresh EpochKind = iota + 1
	// EpochTailFresh is a committed level computed in tail mode.
	EpochTailFresh
	// EpochRollback is an aborted epoch whose state was saved and undone.
	EpochRollback
	// EpochReused is a level committed by jumping to a saved rollback
	// state instead of recomputing it.
	EpochReused
)

// String implements fmt.Stringer.
func (k EpochKind) String() string {
	switch k {
	case EpochHeadFresh:
		return "head/fresh"
	case EpochTailFresh:
		return "tail/fresh"
	case EpochRollback:
		return "rollback"
	case EpochReused:
		return "reused"
	default:
		return "invalid"
	}
}

// Epoch records one epoch of the coarse-grained sweep.
type Epoch struct {
	Kind EpochKind
	// Level is the dendrogram level the epoch committed (0 for rollback
	// epochs, which commit nothing).
	Level int32
	// Clusters is β' at the end of the epoch.
	Clusters int
	// ChunkSize is the chunk budget δ the epoch ran with (0 for reused
	// epochs, which process nothing).
	ChunkSize int64
	// OpsProcessed is the number of incident edge pairs this epoch fed to
	// MERGE (rollback epochs count their wasted work here; reused epochs
	// are 0 — that is the work reuse saved).
	OpsProcessed int64
	// Pairs is the number of vertex pairs (entries of L) the chunk
	// consumed. A committed epoch with Pairs == 1 may exceed the γ bound:
	// vertex pairs are atomic, so soundness cannot be enforced below
	// single-pair granularity.
	Pairs int
	// Changes is the number of array-C entry rewrites during the epoch.
	Changes int64
}

// Result is the outcome of a coarse-grained sweep.
type Result struct {
	// Merges is the dendrogram stream; all merges of one chunk share a
	// level, and a merge's Sim is the similarity of the last vertex pair
	// of its chunk (the chunk's similarity lower bound).
	Merges []core.Merge
	// Chain is the final array C.
	Chain *core.Chain
	// Levels is the number of committed dendrogram levels.
	Levels int32
	// Epochs is the per-epoch log, in execution order.
	Epochs []Epoch
	// OpsProcessed is the number of incident edge pairs processed toward
	// the final state (excluding rolled-back work).
	OpsProcessed int64
	// OpsWasted is the number of incident edge pairs processed in epochs
	// that were rolled back.
	OpsWasted int64
	// TotalOps is K2, the number of incident edge pairs in the input.
	TotalOps int64
	// FinalClusters is the cluster count when the sweep stopped.
	FinalClusters int
}

// FractionProcessed returns OpsProcessed / TotalOps — the paper reports
// 55.1% at α = 0.005.
func (r *Result) FractionProcessed() float64 {
	if r.TotalOps == 0 {
		return 0
	}
	return float64(r.OpsProcessed) / float64(r.TotalOps)
}

// savedState is an epoch state Q = (β, Δ, p, C) (plus bookkeeping) saved on
// L_rollback or as the safe state Q*.
type savedState struct {
	snap  []int32 // array C snapshot
	beta  int
	delta int64 // Δ: cumulative chunk budget consumed
	xi    int64 // incident pairs processed
	p     int   // next vertex-pair index
	sim   float64
}

// levelPoint is one committed level's (ξ, β) coordinate for slope
// extrapolation.
type levelPoint struct {
	xi   int64
	beta int
}

// Sweep runs the coarse-grained sweeping algorithm over list L. An unsorted
// pair list is sorted in place only as far as the sweep reads it: each
// similarity bucket is sorted when a chunk reaches it (see
// core.SortCursor). Afterwards pl.Pairs is a permutation in list-L order
// through the last bucket read and in no particular order after it, and
// pl.Sorted() is false unless the sweep read the last bucket.
func Sweep(g *graph.Graph, pl *core.PairList, params Params) (*Result, error) {
	return SweepCtx(context.Background(), g, pl, params, nil)
}

// SweepCtx is Sweep with cooperative cancellation, panic isolation, and
// optional instrumentation: sort/chunk phase timers, the epoch and
// chain-rewrite counters, and the replica fan-out cost of parallel runs are
// recorded into rec (a nil rec records nothing). The context is checked at
// every chunk boundary — the coarse sweep's natural synchronization points,
// where the replica fan-out is quiescent — plus inside every bucket sort,
// so cancel latency is bounded by one chunk of merge work (chunks start at
// Delta0 operations and grow adaptively). A panic inside the replica
// fan-out surfaces as a *par.WorkerPanicError. The bucket histogram and
// the bucket sorts are timed under the "sort-worklist" phase.
func SweepCtx(ctx context.Context, g *graph.Graph, pl *core.PairList, params Params, rec *obs.Recorder) (res *Result, err error) {
	defer par.RecoverPanicError(&err)
	params.Workers = par.Normalize(params.Workers)
	if err := params.validate(); err != nil {
		return nil, err
	}
	end := rec.Phase("coarse")
	defer end()
	endSort := rec.Phase("sort-worklist")
	w, err := buildWorkListCtx(ctx, g, pl, params.Workers)
	endSort()
	if err != nil {
		return nil, err
	}
	gTilde := params.GammaTilde
	if gTilde == 0 {
		gTilde = (1 + params.Gamma) / 2
	}
	s := &sweeper{
		ctx:    ctx,
		params: params,
		gTilde: gTilde,
		w:      w,
		chain:  core.NewChain(g.NumEdges()),
		rec:    rec,
		res: &Result{
			Chain:    nil, // set at the end
			TotalOps: w.totalOps(),
		},
		eta:   params.Eta0,
		delta: params.Delta0,
		beta:  g.NumEdges(),
		mode:  ModeHead,
	}
	endRun := rec.Phase("chunks")
	s.run()
	endRun()
	// The list is sorted bucket by bucket as the chunks reach it; that time
	// is also inside "chunks".
	rec.AddPhase("sort-worklist", w.took)
	if s.err != nil {
		return nil, s.err
	}
	s.res.Chain = s.chain
	s.res.FinalClusters = s.chain.NumClusters()
	s.recordEpochStats()
	return s.res, nil
}

// recordEpochStats records the run's epoch and rewrite counters once the
// sweep has finished.
func (s *sweeper) recordEpochStats() {
	if s.rec == nil {
		return
	}
	var rollbacks, reuses int64
	for _, ep := range s.res.Epochs {
		switch ep.Kind {
		case EpochRollback:
			rollbacks++
		case EpochReused:
			reuses++
		}
	}
	s.rec.Add(CtrLevels, int64(s.res.Levels))
	s.rec.Add(CtrEpochs, int64(len(s.res.Epochs)))
	s.rec.Add(CtrRollbacks, rollbacks)
	s.rec.Add(CtrReuses, reuses)
	s.rec.Add(CtrOpsProcessed, s.res.OpsProcessed)
	s.rec.Add(CtrOpsWasted, s.res.OpsWasted)
	s.rec.Add(CtrChainRewrites, s.chain.Changes())
}

type sweeper struct {
	// ctx is polled at every chunk boundary; nil means not cancellable.
	ctx    context.Context
	params Params
	gTilde float64
	w      *workList
	chain  *core.Chain
	rec    *obs.Recorder
	res    *Result

	// Mutable sweep state.
	mode  Mode
	eta   float64
	delta int64 // current chunk size estimate δ
	Delta int64 // cumulative chunk budget Δ
	xi    int64 // incident pairs processed toward current state
	p     int   // next vertex-pair index
	beta  int   // clusters at the previous committed level

	safe        *savedState  // Q*
	rollbacks   []savedState // L_rollback
	history     []levelPoint // committed level coordinates
	consecutive int          // consecutive rollbacks from the same safe state
	err         error        // first work-list resolution failure
	batch       [][2]int32   // chunk operation buffer for parallel runs
	roots       []int32      // emitDiffMerges' scratch: each edge's cluster id
}

func (s *sweeper) run() {
	half := s.chain.Len() / 2
	s.safe = s.capture()
	s.history = append(s.history, levelPoint{xi: 0, beta: s.beta})

	if s.beta <= s.params.Phi {
		return // trivially few clusters
	}
	for s.p < s.w.numPairs() {
		// Chunk boundaries are the coarse sweep's cancellation points (and
		// fault.CancelWindow injection sites): the replica fan-out is
		// quiescent here, so stopping leaves no goroutine behind.
		fault.Hit(fault.CancelWindow)
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				s.err = err
				return
			}
		}
		changesBefore := s.chain.Changes()
		opsBefore := s.xi

		endChunk := s.rec.Phase("chunk")
		chunkSim, pairsInChunk := s.processChunk()
		endChunk()
		if s.err != nil {
			return
		}

		opsDone := s.xi - opsBefore
		changes := s.chain.Changes() - changesBefore
		betaNew := s.chain.NumClusters()

		c1 := betaNew <= half
		c2 := float64(s.beta)/float64(betaNew) <= s.params.Gamma
		c3 := betaNew <= s.params.Phi
		next := NextMode(c1, c2, c3)

		if next == ModeRollback {
			if pairsInChunk <= 1 {
				// A single vertex pair is atomic (its common-neighbor
				// list is never split across chunks), so the soundness
				// bound cannot be enforced below this granularity;
				// commit the level rather than rolling back forever.
				next = ModeHead
				if c1 {
					next = ModeTail
				}
			} else {
				s.rollback(betaNew, chunkSim, opsDone, changes, pairsInChunk)
				continue
			}
		}

		// Commit the level.
		s.res.Levels++
		s.emitDiffMerges(chunkSim)
		kind := EpochHeadFresh
		if s.mode == ModeTail || c1 {
			kind = EpochTailFresh
		}
		s.res.Epochs = append(s.res.Epochs, Epoch{
			Kind:         kind,
			Level:        s.res.Levels,
			Clusters:     betaNew,
			ChunkSize:    s.delta,
			OpsProcessed: opsDone,
			Pairs:        pairsInChunk,
			Changes:      changes,
		})
		s.res.OpsProcessed += opsDone
		s.beta = betaNew
		s.Delta += s.delta
		if s.xi > s.Delta {
			// A forced oversized vertex pair overflowed the budget;
			// realign so the next boundary is ahead of the cursor.
			s.Delta = s.xi
		}
		s.history = append(s.history, levelPoint{xi: s.xi, beta: s.beta})
		s.safe = s.capture()
		s.consecutive = 0

		if next == ModeDone {
			return
		}

		// Case I of Section V-A: before estimating the next chunk size,
		// try to reuse a saved rollback state as the next level.
		if s.reuseSavedState() {
			if s.beta <= s.params.Phi {
				return
			}
			// Mode after a jump follows the fresh cluster count.
			if s.beta <= half {
				next = ModeTail
			} else {
				next = ModeHead
			}
		}

		s.estimateChunk(next)
		s.mode = next
	}
}

// capture snapshots the current epoch state.
func (s *sweeper) capture() *savedState {
	sim := 0.0
	if s.p > 0 {
		sim = s.w.sim(s.p - 1)
	}
	return &savedState{
		snap:  s.chain.Snapshot(),
		beta:  s.chain.NumClusters(),
		delta: s.Delta,
		xi:    s.xi,
		p:     s.p,
		sim:   sim,
	}
}

// restore rewinds the sweep to a saved state.
func (s *sweeper) restore(st *savedState) {
	s.chain.Restore(st.snap)
	s.Delta = st.delta
	s.xi = st.xi
	s.p = st.p
}

// processChunk advances through vertex pairs until the chunk budget Δ+δ
// would be exceeded, merging incident edge pairs, and returns the
// similarity of the last vertex pair processed along with the number of
// vertex pairs consumed. At least one vertex pair is always processed (a
// pair whose common-neighbor list alone exceeds the budget is taken whole,
// with the budget realigned by the caller), which guarantees termination.
func (s *sweeper) processChunk() (sim float64, pairs int) {
	start := s.p
	boundary := s.Delta + s.delta
	parallel := s.params.Workers > 1
	s.batch = s.batch[:0]
	for s.p < s.w.numPairs() {
		cnt := s.w.opCount(s.p)
		if s.p > start && s.xi+cnt >= boundary {
			break
		}
		ops, err := s.w.opsOf(s.p)
		if err != nil {
			s.err = err
			break
		}
		if parallel {
			// The whole chunk is partitioned across workers at once
			// (Section VI-B); collect its operations first.
			s.batch = append(s.batch, ops...)
		} else {
			for _, op := range ops {
				s.chain.Merge(op[0], op[1])
			}
		}
		s.xi += cnt
		sim = s.w.sim(s.p)
		s.p++
		if s.xi >= boundary {
			break
		}
	}
	if parallel {
		// parallelMerge clamps its worker count to the chunk size and
		// falls back to serial merging below the small-chunk threshold.
		parallelMerge(s.chain, s.batch, s.params.Workers, s.rec)
	}
	return sim, s.p - start
}

// rollback saves the overshot epoch on L_rollback, restores Q*, shrinks the
// chunk estimate, and applies the head-mode η decay.
func (s *sweeper) rollback(betaNew int, chunkSim float64, opsDone, changes int64, pairsInChunk int) {
	s.res.Epochs = append(s.res.Epochs, Epoch{
		Kind:         EpochRollback,
		Clusters:     betaNew,
		ChunkSize:    s.delta,
		OpsProcessed: opsDone,
		Pairs:        pairsInChunk,
		Changes:      changes,
	})
	s.res.OpsWasted += opsDone
	st := savedState{
		snap:  s.chain.Snapshot(),
		beta:  betaNew,
		delta: s.xi, // budget realigns to the consumed position on reuse
		xi:    s.xi,
		p:     s.p,
		sim:   chunkSim,
	}
	s.rollbacks = append(s.rollbacks, st)

	if s.mode == ModeHead {
		// η-1 halves on every head→rollback transition.
		s.eta = 1 + (s.eta-1)/2
	}

	refXi, refBeta := st.xi, st.beta
	s.restore(s.safe)

	if s.consecutive > 0 {
		// Consecutive rollbacks: halve the distance between the failed
		// estimate and the safe level.
		s.delta = maxI64(1, s.delta/2)
	} else {
		s.delta = s.extrapolate(refXi, refBeta)
	}
	s.consecutive++
	s.mode = ModeRollback
}

// estimateChunk sets δ for the next epoch according to the committed mode.
func (s *sweeper) estimateChunk(next Mode) {
	switch next {
	case ModeHead:
		s.delta = maxI64(1, int64(float64(s.delta)*s.eta))
	case ModeTail:
		// Prefer the closest saved rollback state below β (Eq. 6) as the
		// extrapolation reference; otherwise use the previous two levels.
		if ref, ok := s.tailReference(); ok {
			s.delta = s.extrapolate(ref.xi, ref.beta)
		} else {
			s.delta = s.extrapolate(-1, 0)
		}
	}
}

// tailReference picks the epoch state s* on L_rollback with
// β̃(s*) < β and β̃(s*) maximal (Eq. 6).
func (s *sweeper) tailReference() (levelPoint, bool) {
	best := -1
	for i := range s.rollbacks {
		st := &s.rollbacks[i]
		if st.beta >= s.beta || st.p <= s.p {
			continue
		}
		if best < 0 || st.beta > s.rollbacks[best].beta {
			best = i
		}
	}
	if best < 0 {
		return levelPoint{}, false
	}
	return levelPoint{xi: s.rollbacks[best].xi, beta: s.rollbacks[best].beta}, true
}

// extrapolate predicts the next chunk size from cluster-count slopes
// (Section V-B, Fig. 3). The candidate slopes are (a) between the last two
// committed levels and (b) between the last level and the reference point
// (refXi < 0 disables (b)); the steeper (more negative) slope is used, so
// the estimate undershoots the chunk that would reach the target cluster
// count β/γ̃ at the next level.
func (s *sweeper) extrapolate(refXi int64, refBeta int) int64 {
	lastXi, lastBeta := s.xi, s.beta
	target := float64(lastBeta) / s.gTilde

	slope := 0.0 // clusters per incident pair; want the most negative
	ok := false
	if n := len(s.history); n >= 2 {
		a, b := s.history[n-2], s.history[n-1]
		if b.xi > a.xi && b.beta < a.beta {
			slope = float64(b.beta-a.beta) / float64(b.xi-a.xi)
			ok = true
		}
	}
	if refXi >= 0 && refXi > lastXi && refBeta < lastBeta {
		sRef := float64(refBeta-lastBeta) / float64(refXi-lastXi)
		if !ok || sRef < slope {
			slope = sRef
			ok = true
		}
	}
	if !ok || slope >= 0 {
		// No usable gradient means the last chunk barely reduced the
		// cluster count; flat regions want more pairs per level, so grow.
		next := s.delta * 2
		if next > s.w.totalOps() {
			next = s.w.totalOps()
		}
		return maxI64(1, next)
	}
	est := (target - float64(lastBeta)) / slope
	if est < 1 {
		return 1
	}
	return int64(est)
}

// reuseSavedState implements the Case-I jump: among saved rollback states
// ahead of the cursor with β̃ < β and β/β̃ ≤ γ, jump to the one with the
// smallest cluster count, committing it as the next level without
// recomputation. Stale states are pruned. Reports whether a jump happened.
func (s *sweeper) reuseSavedState() bool {
	best := -1
	for i := range s.rollbacks {
		st := &s.rollbacks[i]
		if st.beta >= s.beta || st.p <= s.p {
			continue
		}
		if float64(s.beta)/float64(st.beta) > s.params.Gamma {
			continue
		}
		if best < 0 || st.beta < s.rollbacks[best].beta {
			best = i
		}
	}
	if best < 0 {
		s.pruneRollbacks()
		return false
	}
	st := s.rollbacks[best]
	opsSkipped := st.xi - s.xi
	s.chain.Restore(st.snap)
	s.Delta = st.delta
	s.xi = st.xi
	s.p = st.p
	s.beta = st.beta

	s.res.Levels++
	s.emitDiffMerges(st.sim)
	s.res.Epochs = append(s.res.Epochs, Epoch{
		Kind:     EpochReused,
		Level:    s.res.Levels,
		Clusters: st.beta,
	})
	// The ops the reused state embodies count as processed (they shaped
	// the final chain) but were executed during the rollback epoch.
	s.res.OpsProcessed += opsSkipped
	s.res.OpsWasted -= opsSkipped
	s.history = append(s.history, levelPoint{xi: s.xi, beta: s.beta})
	s.safe = s.capture()
	s.pruneRollbacks()
	return true
}

// pruneRollbacks drops saved states that can never be used again: behind
// the cursor, or with cluster counts at or above the current β (β only
// decreases).
func (s *sweeper) pruneRollbacks() {
	kept := s.rollbacks[:0]
	for i := range s.rollbacks {
		st := &s.rollbacks[i]
		if st.p > s.p && st.beta < s.beta {
			kept = append(kept, *st)
		}
	}
	s.rollbacks = kept
}

// emitDiffMerges appends one merge event per cluster fusion between the
// last committed state, s.safe.snap (the chain equals it at every chunk
// start and at every reuse), and the current chain, all at the current
// level: for each old root e whose new root nr differs, the event (nr, e)
// into nr. nr is an old root too — a root is its cluster's minimum, and the
// new cluster's minimum is the minimum of one of the old clusters it joins.
// Events are derived from the partition difference, so rolled-back work
// never reaches the dendrogram and reused states emit exactly their net
// effect.
func (s *sweeper) emitDiffMerges(sim float64) {
	end := s.rec.Phase("commit-merges")
	defer end()
	s.roots = s.chain.Roots(s.roots)
	level := s.res.Levels
	lvlStart := len(s.res.Merges)
	for e, c := range s.safe.snap {
		if c != int32(e) {
			continue // enumerate each old cluster once, via its root
		}
		if nr := s.roots[e]; nr != int32(e) {
			s.res.Merges = append(s.res.Merges, core.Merge{Level: level, A: nr, B: int32(e), Into: nr, Sim: sim})
		}
	}
	// Deterministic event order within the level.
	slices.SortFunc(s.res.Merges[lvlStart:], func(a, b core.Merge) int {
		if a.A != b.A {
			return int(a.A) - int(b.A)
		}
		return int(a.B) - int(b.B)
	})
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
