package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/jobs"
)

const (
	// daemonConcurrency is linkclustd's default job concurrency; each job
	// runs at e.workers, so the daemon's compute threads never exceed nproc.
	daemonConcurrency = 1
	// daemonClients closed-loop clients share the daemon. With two, a job's
	// latency was mostly its wait behind the other client's job, and that
	// wait, set by how the two scripts happened to interleave, swung the
	// cold-job median by a quarter from run to run.
	daemonClients = 1
)

// baseGraph is one word graph of the daemon pool with its references.
type baseGraph struct {
	vertices  int
	edgeLines string // the graph's "edge u v w" lines in the text format
	sweepRef  string
	coarseRef string
	t2        theorem2
	// budget is the mem_budget_bytes of budgeted jobs: an eighth of the pair
	// list's encoded size, well below what Phase I leaves on the heap.
	budget int64
}

// text renders the graph with extra isolated vertices. They give the daemon
// a graph it has never hashed, so nothing is served from a cache, while the
// pair list, the merge stream and the cost stay those of the base graph, so
// one reference serves every variant.
func (b *baseGraph) text(extra int) string {
	return "vertices " + strconv.Itoa(b.vertices+extra) + "\n" + b.edgeLines
}

func daemonPool(e *env) ([]*baseGraph, error) {
	c := linkclust.NewCorpus()
	for _, l := range tweetLines(e.scale, e.seed) {
		c.AddDocument(l)
	}
	pool := make([]*baseGraph, len(e.scale.poolFractions))
	engines := map[string]string{}
	for i, f := range e.scale.poolFractions {
		wg, err := linkclust.BuildWordGraph(c, f, linkclust.AssocOptions{})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, ed := range wg.Edges() {
			fmt.Fprintf(&sb, "edge %d %d %s\n", ed.U, ed.V, strconv.FormatFloat(ed.Weight, 'g', -1, 64))
		}
		b := &baseGraph{vertices: wg.NumVertices(), edgeLines: sb.String()}
		// The reference runs on the graph as the daemon parses it.
		g, err := graph.Read(strings.NewReader(b.text(0)))
		if err != nil {
			return nil, err
		}
		if b.sweepRef, err = e.reference(g, false); err != nil {
			return nil, err
		}
		if b.coarseRef, err = e.reference(g, true); err != nil {
			return nil, err
		}
		gs := graph.ComputeStats(g)
		b.t2 = theorem2Of(gs)
		b.budget = max(1, (20*gs.K1+4*gs.K2)/8)
		engines[fmt.Sprintf("%g:%d_edges", f, gs.Edges)] = core.ChooseSweepEngine(gs.K2, e.workers, false)
		pool[i] = b
	}
	e.info["sweep_engines"] = engines
	return pool, nil
}

// daemon is an in-process linkclustd: a manager with the daemon's defaults
// behind its HTTP handler on a loopback port. Its spill files, and its state
// when persistent, live under dir.
type daemon struct {
	m      *jobs.Manager
	srv    *http.Server
	url    string
	dir    string
	served chan error
}

// startDaemon starts a daemon in dir, which daemonDir made.
func startDaemon(dir string, persistent bool) (*daemon, error) {
	cfg := jobs.Config{Concurrency: daemonConcurrency, SpillDir: filepath.Join(dir, "spill")}
	if persistent {
		cfg.StateDir = filepath.Join(dir, "state")
	}
	m, err := jobs.NewPersistentManager(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Drain()
		return nil, err
	}
	d := &daemon{
		m:      m,
		srv:    &http.Server{Handler: jobs.NewHandler(m), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// waitReady polls /readyz until the daemon takes traffic.
func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the manager, shuts the listener, waits for Serve to return and
// removes the daemon's directory.
func (d *daemon) stop() error {
	d.m.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.served
	return errors.Join(err, os.RemoveAll(d.dir))
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// daemonDir makes a fresh daemon directory, with its spill directory, under
// the work directory.
func daemonDir(e *env) (string, error) {
	dir, err := os.MkdirTemp(e.workDir, "daemon-")
	if err != nil {
		return "", err
	}
	if err := os.Mkdir(filepath.Join(dir, "spill"), 0o755); err != nil {
		return "", errors.Join(err, os.RemoveAll(dir))
	}
	return dir, nil
}

// newDaemon starts a daemon in a fresh directory under the work directory.
func newDaemon(e *env, persistent bool) (*daemon, error) {
	dir, err := daemonDir(e)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, persistent)
	if err != nil {
		os.RemoveAll(dir)
	}
	return d, err
}

// measureDaemon drives an in-process linkclustd with closed-loop HTTP
// clients following seeded scripts of cold sweeps, result-cache hits,
// pair-list hits and budgeted (spilled) jobs. It is the only workload that
// runs jobs, HTTP, spill and coarse, and both cache tiers.
//
// The daemon runs memory-only, linkclustd's default. With a state directory
// every job fsyncs its journal records and its pair list, and on a shared
// disk that swung throughput by 15–20% from run to run, more than any bound
// could absorb. The traced run measures persistence apart, in persistProbe.
func measureDaemon(ctx context.Context, e *env, tr *tracer, budget time.Duration) (st *stretch, err error) {
	st = newStretch()
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	if err := daemonSetups(e, st); err != nil {
		return nil, err
	}
	pool, err := daemonPool(e)
	if err != nil {
		return nil, err
	}
	var revisits []step
	for _, i := range e.scale.resubmitOf {
		revisits = append(revisits, step{kindResubmit, i})
	}
	for _, i := range e.scale.coarseOf {
		revisits = append(revisits, step{kindCoarse, i})
	}

	e.info["daemon_concurrency"], e.info["clients"] = daemonConcurrency, daemonClients
	e.info["job_workers"], e.info["cycles_per_round"] = e.workers, cyclesPerRound

	clients := make([]*client, daemonClients)
	gc := &gcPause{}
	for i := range clients {
		clients[i] = &client{
			id: i, workers: e.workers, pool: pool, spillOf: e.scale.spillOf, revisits: revisits, tr: tr, gc: gc,
			http: &http.Client{Timeout: jobTimeout},
			rng:  rand.New(rand.NewPCG(e.seed, uint64(i))),
		}
		defer clients[i].http.CloseIdleConnections()
	}
	// Each round starts a fresh daemon and lets every client run its cycles
	// against it. Rounds keep the daemon's caches, and so its heap and
	// collection work, the same size however long the run.
	var m jobs.Metrics
	deadline := time.Now().Add(budget)
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		if err := daemonRound(ctx, e, clients, st, &m); err != nil {
			return nil, err
		}
	}

	var all []jobSample
	for _, c := range clients {
		st.attempted += c.attempted
		st.failed += c.failed
		all = append(all, c.jobs...)
	}
	for _, js := range all {
		st.lat = append(st.lat, js.lat)
		if !js.cached {
			st.cold = append(st.cold, js.lat)
		}
	}
	if tr == nil {
		return st, nil
	}
	daemonLayers(st.layers, all, m)
	if err := persistProbe(ctx, e, pool, st); err != nil {
		return nil, err
	}
	return st, nil
}

// cyclesPerRound is how many script cycles each client runs on one daemon.
const cyclesPerRound = 2

// daemonStarts is how many daemon start-ups setup_s is the median of. One
// takes well under a millisecond, so it repeats more often than other
// workloads' set-ups.
const daemonStarts = 100

// daemonSetups times daemon start-ups, each until /readyz answers 200. They
// run before the inputs are generated: timed after it, on a process that had
// just built and dropped the pool's references, they read up to three times
// higher and varied as much from run to run.
//
// The daemon's directory is made before the clock starts. Making it took from
// 0.1 to 1 ms from one run to the next, ten times the rest of a start-up, and
// measured the disk rather than the daemon.
func daemonSetups(e *env, st *stretch) error {
	hc := &http.Client{Timeout: jobTimeout}
	defer hc.CloseIdleConnections()
	for range daemonStarts {
		dir, err := daemonDir(e)
		if err != nil {
			return err
		}
		t0 := time.Now()
		d, err := startDaemon(dir, false)
		if err != nil {
			return errors.Join(err, os.RemoveAll(dir))
		}
		err = d.waitReady(hc)
		st.setups = append(st.setups, time.Since(t0).Seconds())
		if err := errors.Join(err, d.stop()); err != nil {
			return err
		}
	}
	return nil
}

// daemonRound starts a daemon, runs the clients' cycles against it, adds its
// counters to m, records its settled heap and stops it. Only the
// traffic counts as busy time.
func daemonRound(ctx context.Context, e *env, clients []*client, st *stretch, m *jobs.Metrics) (err error) {
	d, err := newDaemon(e, false)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.stop()) }()
	hc := clients[0].http
	if err := d.waitReady(hc); err != nil {
		return err
	}

	t1 := time.Now()
	budgeted := 0
	var wg sync.WaitGroup
	for _, c := range clients {
		c.url = d.url
		budgeted -= c.budgeted
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, cyclesPerRound)
		}()
	}
	wg.Wait()
	st.busy += time.Since(t1).Seconds()
	// The daemon's caches are at their fullest now.
	st.settleHeap()
	for _, c := range clients {
		budgeted += c.budgeted
	}

	var rm jobs.Metrics
	code, data, err := roundTrip(ctx, hc, http.MethodGet, d.url+"/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(data, &rm)
	}
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	// Every budgeted job must have gone down the spill rung of the ladder.
	if rm.Spilled != int64(budgeted) {
		st.failed++
		opFailed("spill ladder", fmt.Errorf("%d jobs spilled, %d were budgeted", rm.Spilled, budgeted))
	}
	m.Submitted += rm.Submitted
	m.CacheHitResult += rm.CacheHitResult
	m.DiskHitResult += rm.DiskHitResult
	m.CacheHitPairs += rm.CacheHitPairs
	m.DiskHitPairs += rm.DiskHitPairs
	m.Spilled += rm.Spilled
	return nil
}

// persistProbe sweeps every pool graph once, cold, on a persistent daemon
// with a fresh state directory, after the timed traffic. It reports the
// state directory's bytes per job and the jobs' mean run time, to set
// against jobs.run_s.cold of the memory-only daemon.
func persistProbe(ctx context.Context, e *env, pool []*baseGraph, st *stretch) (err error) {
	d, err := newDaemon(e, true)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.stop()) }()
	c := &client{url: d.url, workers: e.workers, http: &http.Client{Timeout: jobTimeout}}
	defer c.http.CloseIdleConnections()
	if err := d.waitReady(c.http); err != nil {
		return err
	}
	var runs []float64
	for _, b := range pool {
		st.attempted++
		js, err := c.do(ctx, c.fresh(kindCold, b, jobs.Options{Workers: e.workers}))
		if err != nil {
			st.failed++
			opFailed("persistent daemon cold job", err)
			continue
		}
		runs = append(runs, js.run)
	}
	n, err := dirBytes(filepath.Join(d.dir, "state"))
	if err != nil || len(runs) == 0 {
		return err
	}
	st.layers["persist.state_bytes_per_job"] = float64(n) / float64(len(runs))
	st.layers["persist.run_s.cold"] = mean(runs)
	return nil
}

// daemonLayers derives the per-layer metrics of a traced stretch. Layer
// times are per job; core times come from the jobs' run reports.
func daemonLayers(l map[string]float64, all []jobSample, m jobs.Metrics) {
	n := float64(len(all))
	var queueWaits []float64
	byKind := map[jobKind][]jobSample{}
	var sortSec, sweepSec, sortTerm, sweepTerm float64
	var k1, k2 []float64
	for _, js := range all {
		byKind[js.kind] = append(byKind[js.kind], js)
		l["jobs.submit_s"] += js.submit / n
		l["jobs.merges_fetch_s"] += js.fetch / n
		if !js.cached {
			queueWaits = append(queueWaits, js.queueWait)
		}
		p := js.phases
		l["core.similarity_s"] += p["similarity"] / n
		l["core.sort_s"] += p["sweep/sort"] / n
		l["core.sweep_s"] += (p["sweep"] - p["sweep/sort"]) / n
		l["coarse.sweep_s"] += p["coarse"] / n
		if js.kind == kindCold {
			sortSec += p["sweep/sort"]
			sweepSec += p["sweep"] - p["sweep/sort"]
			sortTerm += js.base.t2.sortTerm()
			sweepTerm += js.base.t2.sweepTerm()
			k1 = append(k1, js.base.t2.k1)
			k2 = append(k2, js.base.t2.k2)
		}
	}
	meanOf := func(kind jobKind, f func(jobSample) float64) float64 {
		var xs []float64
		for _, js := range byKind[kind] {
			xs = append(xs, f(js))
		}
		if len(xs) == 0 {
			return 0
		}
		return mean(xs)
	}
	run := func(js jobSample) float64 { return js.run }
	l["jobs.queue_wait_p50_s"] = quantile(queueWaits, 0.5)
	l["jobs.queue_wait_p90_s"] = quantile(queueWaits, 0.9)
	l["jobs.run_s.cold"] = meanOf(kindCold, run)
	l["jobs.run_s.coarse_pairs_hit"] = meanOf(kindCoarse, run)
	l["jobs.run_s.spilled"] = meanOf(kindSpill, run)
	l["core.similarity_s.coarse_pairs_hit"] = meanOf(kindCoarse, func(js jobSample) float64 { return js.phases["similarity"] })
	l["core.sort_ns_per_k1log2k1"] = ratio(sortSec, sortTerm)
	l["core.sweep_ns_per_sqrtk2_e"] = ratio(sweepSec, sweepTerm)
	l["core.pairs"], l["core.incident_pairs"] = mean(k1), mean(k2)

	resultHits := m.CacheHitResult + m.DiskHitResult
	l["jobs.result_hit_ratio"] = float64(resultHits) / float64(m.Submitted)
	l["jobs.pairs_hit_ratio"] = float64(m.CacheHitPairs+m.DiskHitPairs) / float64(m.Submitted-resultHits)
	l["spill.jobs_spilled"] = float64(m.Spilled)
}
