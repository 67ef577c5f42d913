package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/fault"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
	"linkclust/internal/testkit"
)

func TestMain(m *testing.M) {
	// The suite exercises multi-worker jobs; on a 1-core CI box the
	// schedulable-parallelism cap would normalize them all to serial. Raising
	// GOMAXPROCS is the supported oversubscription knob (see par.DefaultCap).
	if runtime.GOMAXPROCS(0) < 8 {
		runtime.GOMAXPROCS(8)
	}
	os.Exit(m.Run())
}

// graphText serializes a deterministic random graph in the canonical text
// format, as a client would submit it.
func graphText(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	g := graph.ErdosRenyi(n, 0.2, rng.New(seed))
	var buf bytes.Buffer
	if err := linkclust.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitState polls until the job reaches a terminal state and returns it.
func waitState(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// soloMerges runs the same clustering outside the service and returns the
// serialized merge stream — the ground truth for bitwise-identity checks.
func soloMerges(t *testing.T, text []byte, workers int) []byte {
	t.Helper()
	g, err := linkclust.ReadGraph(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteMerges(&buf, g.NumEdges(), res.Merges); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSubmitRunMatchesSolo(t *testing.T) {
	m := NewManager(Config{Concurrency: 2})
	defer m.Close()

	text := graphText(t, 60, 1)
	st, err := m.Submit(text, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh submission state = %s, want %s", st.State, StateQueued)
	}
	st = waitState(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Cached || st.PairsHit {
		t.Fatalf("cold run reported cache hits: result=%v pairs=%v", st.Cached, st.PairsHit)
	}

	got, err := m.Merges(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := soloMerges(t, text, 1)
	if !bytes.Equal(got, want) {
		t.Fatal("service merge stream differs from solo ClusterCtx run")
	}
	sum := sha256.Sum256(want)
	if st.Result.MergesSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("MergesSHA256 = %s, want %x", st.Result.MergesSHA256, sum)
	}

	rep, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(rep, "similarity") {
		t.Fatal("cold run report is missing the similarity phase")
	}
}

func hasPhase(rep *linkclust.RunReport, name string) bool {
	for _, p := range rep.Phases {
		if p.Path == name || strings.HasPrefix(p.Path, name+"/") {
			return true
		}
	}
	return false
}

func TestResultCacheHitSkipsEverything(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	text := graphText(t, 50, 2)
	st, err := m.Submit(text, Options{Workers: 4, Engine: linkclust.EngineParallel})
	if err != nil {
		t.Fatal(err)
	}
	first := waitState(t, m, st.ID)
	if first.State != StateDone {
		t.Fatalf("first job %s (%s)", first.State, first.Error)
	}

	// Same graph, different worker count and engine: the engines are bitwise
	// worker-invariant, so this must be served from the dendrogram cache
	// without touching the queue.
	st2, err := m.Submit(text, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmission state=%s cached=%v, want immediate cached done", st2.State, st2.Cached)
	}
	if st2.Result.MergesSHA256 != first.Result.MergesSHA256 {
		t.Fatal("cached result hash differs from original")
	}
	rep, err := m.Report(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 0 {
		t.Fatalf("cached job ran phases %v, want none", rep.Phases)
	}
	if rep.Meta["cache"] != "result-hit" {
		t.Fatalf("cache meta = %q, want result-hit", rep.Meta["cache"])
	}

	m1, err := m.Merges(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Merges(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("cached merge stream differs from original")
	}
}

func TestPairsCacheSkipsSimilarity(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	text := graphText(t, 50, 3)
	st, err := m.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitState(t, m, st.ID); st.State != StateDone {
		t.Fatalf("sweep job %s (%s)", st.State, st.Error)
	}

	// Same graph, different algorithm: misses the result cache but reuses
	// the Phase I pair list.
	st2, err := m.Submit(text, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if st2 = waitState(t, m, st2.ID); st2.State != StateDone {
		t.Fatalf("coarse job %s (%s)", st2.State, st2.Error)
	}
	if st2.Cached {
		t.Fatal("different algorithm hit the result cache")
	}
	if !st2.PairsHit {
		t.Fatal("coarse job recomputed the pair list instead of hitting the cache")
	}
	rep, err := m.Report(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hasPhase(rep, "similarity") {
		t.Fatal("pairs-cache hit still ran the similarity phase")
	}
	if !hasPhase(rep, "coarse") && len(rep.Phases) == 0 {
		t.Fatal("coarse job recorded no sweep phases")
	}
}

func TestPairsCacheResultIdentical(t *testing.T) {
	// A run whose Phase I came from the cache must produce the same merge
	// stream as a cold run: the cache stores the unsorted master order and
	// clones on every hit, so the sweep's in-place sort sees the same input.
	cold := NewManager(Config{CacheEntries: -1}) // caching disabled
	defer cold.Close()
	warm := NewManager(Config{})
	defer warm.Close()

	text := graphText(t, 55, 4)
	stCold, err := cold.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stCold = waitState(t, cold, stCold.ID); stCold.State != StateDone {
		t.Fatalf("cold job %s (%s)", stCold.State, stCold.Error)
	}

	// Prime the pair cache, then flush the result cache by submitting the
	// other algorithm first.
	stA, err := warm.Submit(text, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if stA = waitState(t, warm, stA.ID); stA.State != StateDone {
		t.Fatalf("priming job %s (%s)", stA.State, stA.Error)
	}
	stB, err := warm.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stB = waitState(t, warm, stB.ID); stB.State != StateDone {
		t.Fatalf("warm job %s (%s)", stB.State, stB.Error)
	}
	if !stB.PairsHit {
		t.Fatal("warm job did not hit the pair cache")
	}
	if stB.Result.MergesSHA256 != stCold.Result.MergesSHA256 {
		t.Fatal("pairs-cache-fed sweep diverged from cold run")
	}
}

// holdFirstWindow blocks the first job to reach a sweep window cut or a
// coarse chunk boundary (fault.CancelWindow) until release is called, so a
// test can fill the queue behind a running job without racing it.
func holdFirstWindow(t *testing.T) (release func()) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
	held := make(chan struct{})
	var once sync.Once
	fault.Arm(fault.CancelWindow, 1, func() {
		select {
		case <-held:
		case <-time.After(30 * time.Second):
		}
	})
	release = func() { once.Do(func() { close(held) }) }
	t.Cleanup(release)
	return release
}

func TestQueueFull(t *testing.T) {
	release := holdFirstWindow(t)
	m := NewManager(Config{Concurrency: 1, QueueDepth: 1})
	defer m.Close()

	big := graphText(t, 150, 5)
	ids := []string{}
	sawFull := false
	for i := 0; i < 12; i++ {
		st, err := m.Submit(big, Options{})
		switch {
		case err == nil:
			ids = append(ids, st.ID)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
			release()
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if !sawFull {
		t.Fatal("queue never filled behind the blocked job")
	}
	if m.Metrics().RejectedQueueFull == 0 {
		t.Fatal("queue-full rejection not counted")
	}
	for _, id := range ids {
		waitState(t, m, id)
	}
}

func TestBadOptions(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	if _, err := m.Submit(graphText(t, 10, 6), Options{Algorithm: "fancy"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := m.Submit([]byte("not a graph"), Options{}); err == nil {
		t.Fatal("malformed graph accepted")
	}
}

// pairBytes is the size of text's pair list (PairList.Bytes), the figure a
// job's memory budget is checked against.
func pairBytes(t *testing.T, text []byte) int64 {
	t.Helper()
	g, err := linkclust.ReadGraph(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return core.Similarity(g).Bytes()
}

// TestSpilledRunCached: the first rung of the budget ladder. A sweep job
// whose pair list is one byte over its budget spills the list to disk and
// completes out of core; because the spilled merge stream is bitwise
// identical, the result IS cached and serves a later in-memory
// resubmission verbatim.
func TestSpilledRunCached(t *testing.T) {
	m := NewManager(Config{Concurrency: 1, SpillDir: t.TempDir()})
	defer m.Close()

	text := graphText(t, 40, 7)
	size := pairBytes(t, text)
	st, err := m.Submit(text, Options{MemBudgetBytes: size - 1})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("spilled job %s (%s)", st.State, st.Error)
	}
	if !st.Result.Spilled || st.Result.Degraded {
		t.Fatalf("over budget: spilled=%v degraded=%v, want spilled and not degraded",
			st.Result.Spilled, st.Result.Degraded)
	}
	mt := m.Metrics()
	if mt.Spilled != 1 || mt.Degraded != 0 {
		t.Fatalf("metrics spilled=%d degraded=%d, want 1/0", mt.Spilled, mt.Degraded)
	}

	// Spilled output is bitwise identical, so the resubmission within its
	// budget must be served straight from the result cache.
	st2, err := m.Submit(text, Options{MemBudgetBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("spilled result was not cached")
	}
	if st2 = waitState(t, m, st2.ID); st2.State != StateDone {
		t.Fatalf("follow-up job %s (%s)", st2.State, st2.Error)
	}
	if st2.Result.MergesSHA256 != st.Result.MergesSHA256 {
		t.Fatalf("cached merge stream %s differs from spilled %s",
			st2.Result.MergesSHA256, st.Result.MergesSHA256)
	}
}

// TestDegradedRunNotCached: the second rung. When an over-budget job's
// spill attempt itself fails (injected block-write fault, the
// deterministic ENOSPC), the job degrades fine→coarse and that result must
// NOT be cached under the fine-sweep key: a resubmission within its budget
// runs cold, in memory.
func TestDegradedRunNotCached(t *testing.T) {
	defer fault.Reset()
	m := NewManager(Config{Concurrency: 1, SpillDir: t.TempDir()})
	defer m.Close()

	text := graphText(t, 40, 7)
	size := pairBytes(t, text)
	fault.Reset()
	fault.Arm(fault.SpillWrite, 1, nil) // first rung fails: spill write errors
	st, err := m.Submit(text, Options{MemBudgetBytes: size - 1})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID)
	fault.Reset()
	if st.State != StateDone {
		t.Fatalf("degraded job %s (%s)", st.State, st.Error)
	}
	if !st.Result.Degraded || st.Result.Spilled {
		t.Fatalf("failed spill: degraded=%v spilled=%v, want degraded and not spilled",
			st.Result.Degraded, st.Result.Spilled)
	}
	mt := m.Metrics()
	if mt.Degraded != 1 || mt.Spilled != 0 {
		t.Fatalf("metrics degraded=%d spilled=%d, want 1/0", mt.Degraded, mt.Spilled)
	}

	// The degraded (coarse) result must not have been cached under the
	// fine-sweep key: a resubmission without the fault runs cold.
	st2, err := m.Submit(text, Options{MemBudgetBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("degraded result leaked into the result cache")
	}
	if st2 = waitState(t, m, st2.ID); st2.State != StateDone {
		t.Fatalf("follow-up job %s (%s)", st2.State, st2.Error)
	}
	if st2.Result.Degraded || st2.Result.Spilled {
		t.Fatalf("follow-up run within its budget: degraded=%v spilled=%v, want neither",
			st2.Result.Degraded, st2.Result.Spilled)
	}
}

// TestCoarseJobIgnoresBudget: a coarse job has no spill rung to take, and
// its merge stream does not depend on the budget, so a budget below its
// pair list's size changes nothing: the job finishes, is not degraded, and
// is cached, so a resubmit is a cache hit.
func TestCoarseJobIgnoresBudget(t *testing.T) {
	m := NewManager(Config{Concurrency: 1, SpillDir: t.TempDir()})
	defer m.Close()

	text := graphText(t, 400, 3)
	opts := Options{Algorithm: AlgoCoarse, Workers: 2, MemBudgetBytes: 1}
	st, err := m.Submit(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitState(t, m, st.ID); st.State != StateDone {
		t.Fatalf("coarse job %s (%s)", st.State, st.Error)
	}
	if st.Result.Degraded || st.Result.Spilled {
		t.Fatalf("budgeted coarse job: degraded=%v spilled=%v, want neither",
			st.Result.Degraded, st.Result.Spilled)
	}
	if mt := m.Metrics(); mt.Degraded != 0 {
		t.Fatalf("metrics degraded=%d, want 0", mt.Degraded)
	}
	st2, err := m.Submit(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("budgeted coarse result was not cached")
	}
	if st2 = waitState(t, m, st2.ID); st2.Result.MergesSHA256 != st.Result.MergesSHA256 {
		t.Fatalf("cached merge stream %s differs from the first run's %s",
			st2.Result.MergesSHA256, st.Result.MergesSHA256)
	}
}

// TestExplicitSpillEngineJob: Engine "spill" runs the out-of-core sweep
// unconditionally and matches a serial job's merge stream bit for bit.
func TestExplicitSpillEngineJob(t *testing.T) {
	m := NewManager(Config{Concurrency: 1, SpillDir: t.TempDir()})
	defer m.Close()

	text := graphText(t, 40, 7)
	st, err := m.Submit(text, Options{Engine: linkclust.EngineSpill, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitState(t, m, st.ID); st.State != StateDone {
		t.Fatalf("spill-engine job %s (%s)", st.State, st.Error)
	}
	if !st.Result.Spilled {
		t.Fatal("explicit spill engine did not mark the result spilled")
	}

	// Same graph through a second manager serially: identical stream.
	m2 := NewManager(Config{Concurrency: 1})
	defer m2.Close()
	st2, err := m2.Submit(text, Options{Engine: linkclust.EngineSerial})
	if err != nil {
		t.Fatal(err)
	}
	if st2 = waitState(t, m2, st2.ID); st2.State != StateDone {
		t.Fatalf("serial job %s (%s)", st2.State, st2.Error)
	}
	if st.Result.MergesSHA256 != st2.Result.MergesSHA256 {
		t.Fatalf("spilled stream %s != serial stream %s",
			st.Result.MergesSHA256, st2.Result.MergesSHA256)
	}
}

// TestEngineMatrixMatchesSerial runs every engine at T ∈ {1,2,4,8}, each on
// a fresh manager so no cache answers, and requires every merge stream to
// equal the serial job's bit for bit.
func TestEngineMatrixMatchesSerial(t *testing.T) {
	text := graphText(t, 60, 9)
	run := func(opts Options) Status {
		t.Helper()
		m := NewManager(Config{Concurrency: 1, SpillDir: t.TempDir()})
		defer m.Close()
		st, err := m.Submit(text, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitState(t, m, st.ID); st.State != StateDone {
			t.Fatalf("engine=%s T=%d: job %s (%s)", opts.Engine, opts.Workers, st.State, st.Error)
		}
		return st
	}
	want := run(Options{Engine: linkclust.EngineSerial}).Result.MergesSHA256
	for _, engine := range []string{linkclust.EngineAuto, linkclust.EngineSerial, linkclust.EngineParallel, linkclust.EngineSpill} {
		for _, workers := range []int{1, 2, 4, 8} {
			st := run(Options{Engine: engine, Workers: workers})
			if st.Result.MergesSHA256 != want {
				t.Fatalf("engine=%s T=%d: merges %s, serial %s", engine, workers, st.Result.MergesSHA256, want)
			}
			if st.Result.Spilled != (engine == linkclust.EngineSpill) {
				t.Fatalf("engine=%s T=%d: spilled=%v", engine, workers, st.Result.Spilled)
			}
		}
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(Config{Concurrency: 1})
	defer m.Close()

	st, err := m.Submit(graphText(t, 200, 8), Options{TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m, st.ID)
	if st.State != StateCanceled {
		t.Fatalf("timed-out job state = %s, want canceled", st.State)
	}
	rep, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Meta["error"], "deadline") {
		t.Fatalf("partial report error meta = %q, want deadline mention", rep.Meta["error"])
	}
}

func TestDrainCancelsAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewManager(Config{Concurrency: 2, QueueDepth: 8})

	// Enough sizeable jobs that some are mid-flight and some still queued
	// when the drain lands.
	ids := []string{}
	for i := 0; i < 6; i++ {
		st, err := m.Submit(graphText(t, 150, uint64(10+i)), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	time.Sleep(5 * time.Millisecond) // let workers pick something up
	m.Drain()

	if _, err := m.Submit(graphText(t, 10, 99), Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}

	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone:
			// Finished before the drain landed — fine.
		case StateCanceled:
			rep, err := m.Report(id)
			if err != nil {
				t.Fatalf("canceled job %s lost its partial report: %v", id, err)
			}
			if rep.Meta["error"] == "" {
				t.Fatalf("canceled job %s report not error-tagged", id)
			}
		default:
			t.Fatalf("job %s left in state %s after drain", id, st.State)
		}
	}

	// Drain promises no goroutine outlives it (same contract as the par
	// pools; see internal/par/leak_test.go).
	testkit.WaitGoroutines(t, base)

	m.Drain() // idempotent
}

func TestGraphInterning(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	text := graphText(t, 30, 20)
	// Whitespace/comment variants must canonicalize to the same key.
	variant := append([]byte("# a comment\n\n"), text...)

	st1, err := m.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Submit(variant, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if st1.GraphSHA != st2.GraphSHA {
		t.Fatalf("canonicalization failed: %s vs %s", st1.GraphSHA, st2.GraphSHA)
	}
	waitState(t, m, st1.ID)
	waitState(t, m, st2.ID)

	m.mu.Lock()
	j1, j2 := m.jobs[st1.ID], m.jobs[st2.ID]
	shared := j1.graph == j2.graph
	m.mu.Unlock()
	if !shared {
		t.Fatal("equal-content graphs were not interned to one shared instance")
	}
}

// TestIdemKeysBoundedByRetention submits one graph, then more than maxJobs
// cached resubmissions with distinct idempotency keys: every evicted job
// record takes its key with it, so at most maxJobs keys remain, and the
// newest key still answers with its job.
func TestIdemKeysBoundedByRetention(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	text := graphText(t, 40, 3)
	st, err := m.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID)
	var last Status
	for i := 0; i < maxJobs+100; i++ {
		if last, err = m.SubmitIdem(text, Options{}, fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
		if !last.Cached {
			t.Fatalf("resubmit %d not served from the result cache", i)
		}
	}
	m.mu.Lock()
	keys := len(m.idem)
	m.mu.Unlock()
	if keys > maxJobs {
		t.Fatalf("%d idempotency keys retained, want at most %d", keys, maxJobs)
	}
	again, err := m.SubmitIdem(text, Options{}, fmt.Sprintf("key-%d", maxJobs+99))
	if err != nil || again.ID != last.ID {
		t.Fatalf("newest key answered (%v, %v), want job %s", again.ID, err, last.ID)
	}
}

// TestRawIndexBoundsTextsAndBodiesApart: rawIndex bounds graph texts and
// request bodies separately, so a run of distinct bodies over one graph
// text never evicts the text's entry.
func TestRawIndexBoundsTextsAndBodiesApart(t *testing.T) {
	m := NewManager(Config{CacheEntries: 2})
	defer m.Close()
	text := graphText(t, 40, 3)
	for i := 0; i < 5; i++ {
		body := sha256.Sum256(fmt.Appendf(nil, "body-%d", i))
		if _, err := m.submit(text, Options{}, "", &body); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rawIndex[sha256.Sum256(text)]; !ok {
		t.Fatal("request bodies evicted the graph text's entry")
	}
	if n := len(m.rawIndex); n != 3 {
		t.Fatalf("%d rawIndex entries, want the text's and the 2 newest bodies'", n)
	}
}
