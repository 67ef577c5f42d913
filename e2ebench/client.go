package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"linkclust"
	"linkclust/internal/jobs"
)

const (
	// pollEvery is how often a client polls a job it is waiting for.
	pollEvery = 3 * time.Millisecond
	// jobTimeout bounds how long a client waits for one job.
	jobTimeout = time.Minute
)

type jobKind int

const (
	kindCold     jobKind = iota // fine sweep of a graph the daemon has never seen
	kindResubmit                // exact resubmit of a graph the client saw finish: result-cache hit
	kindCoarse                  // coarse job on a graph the client swept: pair-list hit, no Phase I
	kindSpill                   // fine sweep of a new graph under a budget below its pair list
)

var kindNames = [...]string{"cold", "resubmit", "coarse", "spill"}

// step is one job of a cycle: its kind and the index of its pool graph.
type step struct {
	kind jobKind
	base int
}

// script is one cycle of a client's jobs: a cold sweep of every pool graph
// and one budgeted job in a seeded order, with a resubmit of each graph in
// scale.resubmitOf and a coarse job on each graph in scale.coarseOf at a
// seeded position after that graph's cold sweep. Every cycle thus does the
// same work on every seed, and since clients stop only at cycle boundaries
// the cache-hit ratios are exact.
func (c *client) script(spill int) []step {
	var s []step
	for _, i := range c.rng.Perm(len(c.pool)) {
		s = append(s, step{kindCold, i})
	}
	s = slices.Insert(s, c.rng.IntN(len(s)+1), step{kindSpill, spill})
	for _, r := range c.revisits {
		at := slices.Index(s, step{kindCold, r.base})
		s = slices.Insert(s, at+1+c.rng.IntN(len(s)-at), r)
	}
	return s
}

// gcPause suspends garbage collection while any budgeted job is in flight.
// A job's memory budget is checked as heap growth across Phase I, and a
// collection that ends inside that window frees other jobs' garbage and can
// hide the pair list from the check, so whether the ladder spills would
// depend on collector timing. Collecting first and pausing until the job is
// done makes every budgeted job spill, as the workload intends.
type gcPause struct {
	mu    sync.Mutex
	held  int
	saved int
}

func (p *gcPause) hold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held == 0 {
		runtime.GC()
		p.saved = debug.SetGCPercent(-1)
	}
	p.held++
}

func (p *gcPause) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held--; p.held == 0 {
		debug.SetGCPercent(p.saved)
	}
}

// submission is one job a client sends.
type submission struct {
	kind jobKind
	base *baseGraph
	text string
	body []byte
}

// jobSample is what a client observed of one finished job.
type jobSample struct {
	kind                    jobKind
	base                    *baseGraph
	lat                     float64 // submit to done, as the client sees it
	submit, fetch           float64 // POST /jobs and GET /jobs/{id}/merges round trips
	queueWait, run          float64 // from the job's status timestamps
	cached, pairsHit, spill bool
	phases                  map[string]float64 // run-report phase wall times (traced)
}

// client is one closed-loop HTTP client of the daemon.
type client struct {
	id, workers int
	url         string
	pool        []*baseGraph
	spillOf     []int  // pool indices budgeted jobs rotate through
	revisits    []step // resubmits and coarse jobs of every cycle
	http        *http.Client
	rng         *rand.Rand
	tr          *tracer
	gc          *gcPause // shared by the clients
	graphs      int      // new graphs submitted so far
	cycles      int      // cycles begun so far

	jobs                        []jobSample
	attempted, failed, budgeted int
}

// run plays cycles of the script against the daemon at c.url.
func (c *client) run(ctx context.Context, cycles int) {
	for range cycles {
		c.cycles++
		swept := map[int]*submission{}
		for _, s := range c.script(c.spillOf[(c.cycles+c.id)%len(c.spillOf)]) {
			b := c.pool[s.base]
			var sub *submission
			switch s.kind {
			case kindCold:
				sub = c.fresh(s.kind, b, jobs.Options{Workers: c.workers})
			case kindSpill:
				sub = c.fresh(s.kind, b, jobs.Options{Workers: c.workers, MemBudgetBytes: b.budget})
			case kindResubmit:
				if t := swept[s.base]; t != nil {
					sub = &submission{kind: s.kind, base: b, text: t.text, body: t.body}
				}
			case kindCoarse:
				if t := swept[s.base]; t != nil {
					sub = newSubmission(s.kind, b, t.text, jobs.Options{Workers: c.workers, Algorithm: jobs.AlgoCoarse})
				}
			}
			if sub == nil {
				continue // its cold sweep failed earlier in the cycle
			}
			c.attempted++
			if s.kind == kindSpill {
				c.budgeted++
				c.gc.hold()
			}
			js, err := c.do(ctx, sub)
			if s.kind == kindSpill {
				c.gc.release()
			}
			if err != nil {
				c.failed++
				opFailed(fmt.Sprintf("client %d %s job", c.id, kindNames[s.kind]), err)
				continue
			}
			c.jobs = append(c.jobs, js)
			if s.kind == kindCold {
				swept[s.base] = sub
			}
		}
	}
}

// fresh builds a job on a graph no client has submitted: clients interleave
// their extra-vertex counts.
func (c *client) fresh(k jobKind, b *baseGraph, opts jobs.Options) *submission {
	c.graphs++
	return newSubmission(k, b, b.text(c.id+1+daemonClients*c.graphs), opts)
}

func newSubmission(k jobKind, b *baseGraph, text string, opts jobs.Options) *submission {
	// Cannot fail: the request holds only strings and integers.
	body, _ := json.Marshal(jobs.SubmitRequest{Graph: text, Options: opts})
	return &submission{kind: k, base: b, text: text, body: body}
}

// do submits one job, waits for it, fetches its merge stream and checks it
// against the serial reference.
func (c *client) do(ctx context.Context, sub *submission) (jobSample, error) {
	js := jobSample{kind: sub.kind, base: sub.base}
	root := c.tr.start("job."+kindNames[sub.kind], 0)
	defer c.tr.end(root)

	t0 := time.Now()
	s := c.tr.start("jobs.submit", root)
	code, data, err := roundTrip(ctx, c.http, http.MethodPost, c.url+"/jobs", sub.body)
	js.submit = time.Since(t0).Seconds()
	c.tr.end(s)
	if err != nil {
		return js, err
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return js, fmt.Errorf("refused: HTTP %d: %s", code, data)
	default:
		return js, fmt.Errorf("submit: HTTP %d: %s", code, data)
	}
	var stat jobs.Status
	if err := json.Unmarshal(data, &stat); err != nil {
		return js, err
	}

	w := c.tr.start("jobs.wait", root)
	for stat.State == jobs.StateQueued || stat.State == jobs.StateRunning {
		if time.Since(t0) > jobTimeout {
			c.tr.end(w)
			return js, fmt.Errorf("job %s timed out %s", stat.ID, stat.State)
		}
		time.Sleep(pollEvery)
		code, data, err := roundTrip(ctx, c.http, http.MethodGet, c.url+"/jobs/"+stat.ID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d: %s", code, data)
		}
		if err == nil {
			err = json.Unmarshal(data, &stat)
		}
		if err != nil {
			c.tr.end(w)
			return js, err
		}
	}
	js.lat = time.Since(t0).Seconds()
	c.tr.end(w)
	if stat.State != jobs.StateDone || stat.Result == nil {
		return js, fmt.Errorf("job %s ended %s: %s", stat.ID, stat.State, stat.Error)
	}
	js.cached, js.pairsHit, js.spill = stat.Cached, stat.PairsHit, stat.Result.Spilled
	js.queueWait = stat.StartedAt.Sub(stat.EnqueuedAt).Seconds()
	js.run = stat.FinishedAt.Sub(stat.StartedAt).Seconds()

	t1 := time.Now()
	f := c.tr.start("jobs.merges_fetch", root)
	code, merges, err := roundTrip(ctx, c.http, http.MethodGet, c.url+"/jobs/"+stat.ID+"/merges", nil)
	c.tr.end(f)
	js.fetch = time.Since(t1).Seconds()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("merges: HTTP %d: %s", code, merges)
	}
	if err != nil {
		return js, err
	}
	want := sub.base.sweepRef
	if sub.kind == kindCoarse {
		want = sub.base.coarseRef
	}
	if sum := sha256.Sum256(merges); hex.EncodeToString(sum[:]) != want {
		return js, fmt.Errorf("job %s: %w", stat.ID, errMismatch)
	}
	if err := js.tookItsPath(); err != nil {
		return js, fmt.Errorf("job %s: %w", stat.ID, err)
	}
	if c.tr != nil {
		js.phases, err = runReportPhases(ctx, c.http, c.url, stat.ID)
	}
	return js, err
}

// tookItsPath checks that the job went down the path its kind exercises.
func (js *jobSample) tookItsPath() error {
	var ok bool
	switch js.kind {
	case kindCold:
		ok = !js.cached && !js.pairsHit && !js.spill
	case kindResubmit:
		ok = js.cached
	case kindCoarse:
		ok = !js.cached && js.pairsHit
	case kindSpill:
		ok = !js.cached && js.spill
	}
	if !ok {
		return fmt.Errorf("%s job took another path (cached=%v pairs_hit=%v spilled=%v)",
			kindNames[js.kind], js.cached, js.pairsHit, js.spill)
	}
	return nil
}

// runReportPhases reads a job's run report: its phase wall times in seconds.
func runReportPhases(ctx context.Context, hc *http.Client, url, id string) (map[string]float64, error) {
	code, data, err := roundTrip(ctx, hc, http.MethodGet, url+"/runreport/"+id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("run report: HTTP %d: %s", code, data)
	}
	if err != nil {
		return nil, err
	}
	var rep linkclust.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	phases := map[string]float64{}
	for _, p := range rep.Phases {
		phases[p.Path] += float64(p.WallNS) / 1e9
	}
	return phases, nil
}

func roundTrip(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
