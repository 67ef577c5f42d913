package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/graph"
)

// sampledSteps is how many steps per round, besides the last, have their
// snapshot checked against batch clustering of the same prefix.
const sampledSteps = 3

// measureStream replays a word graph, in edge-id order, as arrivals into the
// incremental engine with default options. Set-up ingests all but the
// trickle and takes the first snapshot; each op is IngestBatch of one batch
// then Snapshot. When the trickle runs out before the budget, a fresh engine
// is set up and the trickle replays. Writes (arrivals) sit beside reads
// (snapshots), and core's Phase I kernel and sweep run per affected row and
// from checkpoints instead of in batch.
func measureStream(ctx context.Context, e *env, tr *tracer, budget time.Duration) (*stretch, error) {
	st := newStretch()
	g, err := wordGraphWithEdges(tweetLines(e.scale, e.seed), e.scale.streamEdges)
	if err != nil {
		return nil, err
	}
	arrivals := make([]linkclust.Arrival, g.NumEdges())
	for i, ed := range g.Edges() {
		arrivals[i] = linkclust.Arrival{U: int(ed.U), V: int(ed.V), W: ed.Weight}
	}
	batch := e.scale.batch
	warm := len(arrivals) - min(e.scale.trickle, len(arrivals)/2)
	steps := (len(arrivals) - warm) / batch
	if steps == 0 {
		return nil, fmt.Errorf("stream graph of %d edges leaves no trickle", len(arrivals))
	}
	terms, err := stepTerms(arrivals, warm, batch, steps)
	if err != nil {
		return nil, err
	}
	e.info["edges"], e.info["warm_edges"], e.info["batch"] = len(arrivals), warm, batch
	e.info["steps_per_round"] = steps

	setup := func() (*linkclust.Stream, *linkclust.Recorder, error) {
		var rec *linkclust.Recorder
		if tr != nil {
			rec = linkclust.NewRecorder()
		}
		t0 := time.Now()
		s, err := linkclust.NewStream(linkclust.StreamOptions{Workers: e.workers, Recorder: rec})
		if err == nil {
			err = s.IngestBatchCtx(ctx, arrivals[:warm])
		}
		if err == nil {
			_, err = s.SnapshotCtx(ctx)
		}
		st.setups = append(st.setups, time.Since(t0).Seconds())
		return s, rec, err
	}
	// The extra set-ups make setup_s a median even when one round fills the
	// budget.
	for range e.scale.setups - 1 {
		if _, _, err := setup(); err != nil {
			return nil, err
		}
	}

	type check struct {
		prefix int
		sha    string
	}
	var checks []check
	rng := rand.New(rand.NewPCG(e.seed, 0x5eed))
	var done []int // step index of every successful step
	var delta recorderDelta
	deadline := time.Now().Add(budget)
	for st.attempted == 0 || time.Now().Before(deadline) {
		s, rec, err := setup()
		if err != nil {
			return nil, err
		}
		before := rec.Report()
		sampled := map[int]bool{}
		for _, i := range rng.Perm(steps)[:min(sampledSteps, steps)] {
			sampled[i] = true
		}
		var last *core.Result
		lastPrefix := 0
		for i := 0; i < steps && (st.attempted == 0 || time.Now().Before(deadline)); i++ {
			lo, hi := warm+i*batch, warm+(i+1)*batch
			st.attempted++
			root := tr.start("step", 0)
			t0 := time.Now()
			sp := tr.start("stream.ingest", root)
			err := s.IngestBatchCtx(ctx, arrivals[lo:hi])
			tr.end(sp)
			var res *core.Result
			if err == nil {
				sp = tr.start("stream.snapshot", root)
				res, err = s.SnapshotCtx(ctx)
				tr.end(sp)
			}
			d := time.Since(t0).Seconds()
			tr.end(root)
			if err != nil {
				st.failed++
				opFailed(fmt.Sprintf("stream step %d", i), err)
				continue
			}
			st.lat = append(st.lat, d)
			st.cold = append(st.cold, d)
			st.busy += d
			done = append(done, i)
			last, lastPrefix = res, hi
			if sampled[i] {
				sha, err := mergesSHA(hi, res.Merges)
				if err != nil {
					return nil, err
				}
				checks = append(checks, check{hi, sha})
			}
		}
		// The engine holds its largest state after its last step.
		st.settleHeap()
		runtime.KeepAlive(s)
		// The round's final snapshot is always checked.
		if last != nil && (len(checks) == 0 || checks[len(checks)-1].prefix != lastPrefix) {
			sha, err := mergesSHA(lastPrefix, last.Merges)
			if err != nil {
				return nil, err
			}
			checks = append(checks, check{lastPrefix, sha})
		}
		delta.add(before, rec.Report())
	}

	for _, c := range checks {
		want, err := e.reference(prefixGraph(arrivals[:c.prefix]), false)
		if err != nil {
			return nil, err
		}
		if c.sha != want {
			st.failed++
			opFailed(fmt.Sprintf("snapshot after %d arrivals", c.prefix), errMismatch)
		}
	}
	if tr == nil {
		return st, nil
	}

	n := float64(len(done))
	var sortTerm, sweepTerm, k1, k2 float64
	for _, i := range done {
		sortTerm += terms[i].sortTerm()
		sweepTerm += terms[i].sweepTerm()
		k1 += terms[i].k1
		k2 += terms[i].k2
	}
	l := st.layers
	l["stream.ingest_s"] = tr.total("stream.ingest") / n
	l["stream.snapshot_s"] = tr.total("stream.snapshot") / n
	l["core.similarity_s"] = delta.phases["similarity"] / n
	l["core.sort_s"] = delta.phases["sweep/sort"] / n
	l["core.sweep_s"] = (delta.phases["sweep"] - delta.phases["sweep/sort"]) / n
	l["core.sort_ns_per_k1log2k1"] = ratio(delta.phases["sweep/sort"], sortTerm)
	l["core.sweep_ns_per_sqrtk2_e"] = ratio(delta.phases["sweep"]-delta.phases["sweep/sort"], sweepTerm)
	l["core.pairs"], l["core.incident_pairs"] = k1/n, k2/n
	l["stream.replayed_ops_ratio"] = float64(delta.counters[linkclust.CtrStreamReplayedOps]) / k2
	l["stream.compactions_ratio"] = float64(delta.counters[linkclust.CtrStreamCompactions]) / n
	l["stream.affected_rows_per_arrival"] = float64(delta.counters[linkclust.CtrStreamAffectedRows]) / (n * float64(batch))
	return st, nil
}

// recorderDelta accumulates what a recorder gained between two reports:
// phase wall times in seconds and counters.
type recorderDelta struct {
	phases   map[string]float64
	counters map[string]int64
}

func (d *recorderDelta) add(before, after *linkclust.RunReport) {
	if after == nil {
		return
	}
	if d.phases == nil {
		d.phases, d.counters = map[string]float64{}, map[string]int64{}
	}
	for _, p := range after.Phases {
		d.phases[p.Path] += float64(p.WallNS) / 1e9
	}
	for k, v := range after.Counters {
		d.counters[k] += v
	}
	for _, p := range before.Phases {
		d.phases[p.Path] -= float64(p.WallNS) / 1e9
	}
	for k, v := range before.Counters {
		d.counters[k] -= v
	}
}

// prefixGraph is the graph of the first arrivals, with the edge ids the
// stream assigns them.
func prefixGraph(arrivals []linkclust.Arrival) *graph.Graph {
	n := 0
	for _, a := range arrivals {
		n = max(n, a.U+1, a.V+1)
	}
	b := graph.NewBuilder(n)
	for _, a := range arrivals {
		b.MustAddEdge(a.U, a.V, a.W)
	}
	return b.Build(nil)
}

// stepTerms gives the Theorem 2 denominators of the graph after each step:
// |E| and K2 exactly (K2 grows by the endpoints' old degrees per edge), K1
// interpolated between the warm and the full graph's graph.ComputeStats.
func stepTerms(arrivals []linkclust.Arrival, warm, batch, steps int) ([]theorem2, error) {
	first := graph.ComputeStats(prefixGraph(arrivals[:warm]))
	full := graph.ComputeStats(prefixGraph(arrivals))
	deg := make([]int64, full.Vertices)
	for _, a := range arrivals[:warm] {
		deg[a.U]++
		deg[a.V]++
	}
	k2 := first.K2
	terms := make([]theorem2, steps)
	for i := range terms {
		lo, hi := warm+i*batch, warm+(i+1)*batch
		for _, a := range arrivals[lo:hi] {
			k2 += deg[a.U] + deg[a.V]
			deg[a.U]++
			deg[a.V]++
		}
		frac := float64(hi-warm) / float64(len(arrivals)-warm)
		terms[i] = theorem2{
			k1:    float64(first.K1) + frac*float64(full.K1-first.K1),
			k2:    float64(k2),
			edges: float64(hi),
		}
	}
	if hi := warm + steps*batch; hi == len(arrivals) && int64(terms[steps-1].k2) != full.K2 {
		return nil, fmt.Errorf("incremental K2 %v disagrees with graph.ComputeStats %d", terms[steps-1].k2, full.K2)
	}
	return terms, nil
}
