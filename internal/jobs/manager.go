package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/obs"
	"linkclust/internal/persist"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the bounded queue rejected the submission (429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrOverloaded means the admission memory check rejected the
	// submission: the process live heap is already past the configured
	// ceiling (429).
	ErrOverloaded = errors.New("jobs: memory budget exhausted")
	// ErrDraining means the manager is shutting down (503).
	ErrDraining = errors.New("jobs: draining")
	// ErrRecovering means startup journal replay has not finished yet;
	// submissions are rejected (503 + Retry-After) until the manager is
	// ready. Read endpoints work throughout.
	ErrRecovering = errors.New("jobs: recovering")
	// ErrUnknownJob means the job id is not (or no longer) retained (404).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrNotFinished means the requested artifact exists only for finished
	// jobs (409).
	ErrNotFinished = errors.New("jobs: job not finished")
)

// Config parameterizes a Manager. The zero value is usable: every field has
// a conservative default applied by NewManager.
type Config struct {
	// Concurrency is the number of jobs run simultaneously (the worker-pool
	// size; default 1). Each job additionally fans out to its own
	// Options.Workers engine workers, so total goroutine pressure is
	// bounded by Concurrency × par.DefaultCap().
	Concurrency int
	// QueueDepth bounds the number of jobs waiting to run (default 16);
	// submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// DefaultJobTimeout applies to jobs that don't set Options.TimeoutMS
	// (default 5m; <0 disables).
	DefaultJobTimeout time.Duration
	// MemBudgetBytes is the admission ceiling: a submission is rejected
	// with ErrOverloaded while the process live heap exceeds it (0
	// disables). Checked with a stop-the-world-free runtime/metrics read
	// (obs.LiveHeapBytes) at every enqueue.
	MemBudgetBytes int64
	// JobMemBudgetBytes is the default per-job memory budget handed to the
	// pipeline: pair-list bytes above the budget choose the spill rung, so
	// a sweep job whose list exceeds it spills the list to disk (SpillDir)
	// and sweeps out of core, degrading fine→coarse only if the spill fails
	// (0 disables). Coarse jobs ignore it.
	JobMemBudgetBytes int64
	// SpillDir is the parent directory for out-of-core spill files: each
	// spilled run creates one private file under it and removes it on every
	// exit path. Empty means the system temp directory.
	SpillDir string
	// CacheEntries bounds, each on its own, the memory side of the pair-list
	// and result caches, the shared-graph registry, and the raw index's graph
	// texts and request bodies (default 64; <0 disables these memory maps).
	// It does not bound the durable tier: with a StateDir, pair lists and
	// results are still written to disk and served from it, without bound.
	CacheEntries int
	// StateDir enables crash-safe persistence: the job journal, the durable
	// cache tier and graph blobs all live under it, and startup replays the
	// journal (re-serving completed results, re-running interrupted jobs
	// from the start of their sweep). Empty disables persistence entirely.
	// Only NewPersistentManager honors it; see that constructor for the error
	// semantics (locked or unopenable state dirs).
	StateDir string
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultJobTimeout == 0 {
		c.DefaultJobTimeout = 5 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	return c
}

// Metrics is the monotonic-counter snapshot served at /metrics.
type Metrics struct {
	Submitted         int64 `json:"jobs_submitted"`
	Completed         int64 `json:"jobs_completed"`
	Failed            int64 `json:"jobs_failed"`
	Canceled          int64 `json:"jobs_canceled"`
	Degraded          int64 `json:"jobs_degraded"`
	Spilled           int64 `json:"jobs_spilled"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedOverload  int64 `json:"rejected_mem_budget"`
	RejectedDraining  int64 `json:"rejected_draining"`
	CacheHitResult    int64 `json:"cache_hits_result"`
	CacheHitPairs     int64 `json:"cache_hits_pairs"`
	Active            int64 `json:"jobs_active"`
	QueueDepth        int64 `json:"queue_depth"`
	CachePairEntries  int64 `json:"cache_pair_entries"`
	CacheResultEnts   int64 `json:"cache_result_entries"`
	LiveHeapBytes     int64 `json:"live_heap_bytes"`

	// Persistence (all zero for memory-only managers).
	RejectedRecovering    int64 `json:"rejected_recovering"`
	DiskHitResult         int64 `json:"disk_cache_hits_result"`
	DiskHitPairs          int64 `json:"disk_cache_hits_pairs"`
	JournalReplayed       int64 `json:"journal_records_replayed"`
	JobsRecovered         int64 `json:"jobs_recovered"`
	CorruptEntries        int64 `json:"persist_corrupt_entries"`
	PersistWriteSkips     int64 `json:"persist_write_skips"`
	JanitorReclaimedBytes int64 `json:"janitor_reclaimed_bytes"`
	PersistDegraded       int64 `json:"persist_degraded"`
}

// Manager owns the queue, the worker pool, the caches, and every job
// record. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	pairs   *tier[*core.PairList] // Phase I output by graph hash
	results *tier[*resultEntry]   // finished results by result key
	store   *persister            // nil for memory-only managers

	baseCtx context.Context
	cancel  context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	// readyFlag flips true once journal replay finishes (immediately for
	// memory-only managers); replayDone is closed at the same moment and is
	// what Drain waits on before closing the queue.
	readyFlag  atomic.Bool
	replayDone chan struct{}

	// graphs interns parsed graphs by canonical hash (see internGraph).
	graphs lru[*linkclust.Graph]
	// texts and bodies are the raw index (see rawEntry), split so request
	// bodies never crowd graph texts out.
	texts, bodies lru[rawEntry]

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // insertion order, for bounded retention
	idem     map[string]string
	seq      int64

	mSubmitted, mCompleted, mFailed, mCanceled, mDegraded, mSpilled atomic.Int64
	mRejQueue, mRejOverload, mRejDraining, mRejRecovering           atomic.Int64
	mHitResult, mHitPairs, mActive                                  atomic.Int64
	mDiskHitResult, mDiskHitPairs, mRecovered                       atomic.Int64
	mReplayed, mJanitorBytes                                        atomic.Int64
}

// rawEntry is what a request's raw bytes resolved to, so the same bytes
// never pay the decode, the text parse and the canonical serialization
// twice. The raw index maps the SHA-256 of the bytes to their entry, for
// two kinds of bytes: a graph text (its canonical key and shared parsed
// Graph; opts is nil) and a whole request body, which also holds its
// normalized options and result key. A byte-identical resubmission is then
// answered from the body's hash alone — on a result-cache hit, one hash and
// a few map lookups — and a new request over a graph text seen before (a
// coarse job after a sweep of the same graph) skips the parse.
type rawEntry struct {
	graphKey  [sha256.Size]byte
	g         *linkclust.Graph
	opts      *Options
	resultKey [sha256.Size]byte
}

// NewManager starts a manager with cfg's worker pool running. It delegates
// to NewPersistentManager and panics if cfg.StateDir is set but cannot be
// opened — callers that configure persistence should use
// NewPersistentManager and handle the error.
func NewManager(cfg Config) *Manager {
	m, err := NewPersistentManager(cfg)
	if err != nil {
		panic(fmt.Sprintf("jobs: %v", err))
	}
	return m
}

// NewPersistentManager starts a manager, opening and recovering the state
// directory when cfg.StateDir is set: lockfile, janitor, journal replay. It
// returns immediately — replay runs on its own goroutine, Ready reports its
// completion, and submissions fail with ErrRecovering until then. Errors are
// startup-fatal conditions only: a state dir held by a live process
// (persist.ErrLocked) or unreadable/uncreatable state files. Corrupt journal
// tails and cache entries are recovery inputs, not errors.
func NewPersistentManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	var (
		store      *persister
		replayRecs []persist.Record
		janitorB   int64
	)
	if cfg.StateDir != "" {
		var err error
		store, replayRecs, janitorB, err = openPersister(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		if cfg.SpillDir == "" {
			// Spills under the state dir put orphaned spill runs from a
			// crashed process inside the janitor's reach.
			cfg.SpillDir = store.dir.SpillDir()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		pairs:      newPairsTier(cfg.CacheEntries, store),
		results:    newResultsTier(cfg.CacheEntries, store),
		store:      store,
		baseCtx:    ctx,
		cancel:     cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		replayDone: make(chan struct{}),
		jobs:       make(map[string]*Job),
		idem:       make(map[string]string),
		graphs:     lru[*linkclust.Graph]{max: cfg.CacheEntries},
		texts:      lru[rawEntry]{max: cfg.CacheEntries},
		bodies:     lru[rawEntry]{max: cfg.CacheEntries},
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	if store == nil {
		m.readyFlag.Store(true)
		close(m.replayDone)
	} else {
		m.mJanitorBytes.Store(janitorB)
		m.mReplayed.Store(int64(len(replayRecs)))
		go m.replay(replayRecs)
	}
	return m, nil
}

// Ready reports whether startup recovery has finished (always true for
// memory-only managers). The HTTP readiness probe serves it.
func (m *Manager) Ready() bool { return m.readyFlag.Load() }

// Submit parses graphText (the library's text graph format, treated as
// untrusted input), applies admission control, and either answers from the
// result cache (the returned Status is already StateDone with Cached=true)
// or enqueues a job. Admission order: drain state, then the memory ceiling
// (cheap runtime/metrics read), then parsing, then the cache, then the
// bounded queue.
func (m *Manager) Submit(graphText []byte, opts Options) (Status, error) {
	return m.SubmitIdem(graphText, opts, "")
}

// SubmitIdem is Submit with a client idempotency key: a non-empty key seen
// before returns the current status of the job it originally created — no
// new job, no duplicate work — which is what lets a client retry a submission
// whose response was lost (to a crash, a timeout, a dropped connection)
// without double-submitting. Keys are journaled with their jobs, so the
// mapping survives a daemon restart.
func (m *Manager) SubmitIdem(graphText []byte, opts Options, idemKey string) (Status, error) {
	return m.submit(graphText, opts, idemKey, nil)
}

// submit is SubmitIdem for a request whose raw body hashes to *bodyKey;
// nil means the caller has no body to remember. A body that carried no
// idempotency key of its own is recorded in the raw index, so submitRepeat
// can answer its byte-identical resubmissions without decoding them.
func (m *Manager) submit(graphText []byte, opts Options, idemKey string, bodyKey *[sha256.Size]byte) (Status, error) {
	opts, err := opts.normalize()
	if err != nil {
		return Status{}, err
	}
	if err := m.checkOpen(); err != nil {
		return Status{}, err
	}
	if idemKey != "" {
		m.mu.Lock()
		if id, ok := m.idem[idemKey]; ok {
			if j, live := m.jobs[id]; live {
				s := j.snapshot()
				m.mu.Unlock()
				return s, nil
			}
			// The mapped job was evicted from retention; the key no longer
			// proves anything — treat the submission as fresh.
			delete(m.idem, idemKey)
		}
		m.mu.Unlock()
	}
	if err := m.checkMemory(); err != nil {
		return Status{}, err
	}
	textKey := sha256.Sum256(graphText)
	e, ok := m.texts.get(textKey)
	var (
		canon        []byte
		parse, write time.Duration
	)
	if !ok {
		t0 := time.Now()
		g, err := linkclust.ReadGraph(bytes.NewReader(graphText))
		if err != nil {
			return Status{}, fmt.Errorf("jobs: parsing graph: %w", err)
		}
		// Content address: hash the *canonical* serialization, not the
		// request bytes, so whitespace/comment variants of the same graph
		// share cache entries and one immutable in-memory Graph. The same
		// bytes become the graph blob of a persistent manager. They are
		// seldom longer than the submitted text, so one buffer of its size
		// holds them.
		t1 := time.Now()
		buf := bytes.NewBuffer(make([]byte, 0, len(graphText)))
		if err := linkclust.WriteGraph(buf, g); err != nil {
			return Status{}, err
		}
		canon, parse, write = buf.Bytes(), t1.Sub(t0), time.Since(t1)
		e = rawEntry{graphKey: sha256.Sum256(canon), g: g}
	}
	sub := rawEntry{graphKey: e.graphKey, g: e.g, opts: &opts, resultKey: opts.resultKey(e.graphKey)}
	return m.enqueue(sub, canon, parse, write, &textKey, bodyKey, idemKey)
}

// submitRepeat answers a request body that hashes to bodyKey, when that
// body was submitted before without an idempotency key, without decoding
// it: the body's raw-index entry holds its parsed graph, normalized options
// and result key, and the submission goes on exactly as a decoded one
// would — admission, journal records, the result cache, the queue. ok is
// false when the body is not indexed; the caller then decodes it and calls
// submit.
func (m *Manager) submitRepeat(bodyKey [sha256.Size]byte) (st Status, ok bool, err error) {
	e, ok := m.bodies.get(bodyKey)
	if !ok {
		return Status{}, false, nil
	}
	if err := m.checkOpen(); err != nil {
		return Status{}, true, err
	}
	if err := m.checkMemory(); err != nil {
		return Status{}, true, err
	}
	st, err = m.enqueue(e, nil, 0, 0, nil, nil, "")
	return st, true, err
}

// checkOpen is the first admission check: submissions wait for startup
// recovery and stop at drain.
func (m *Manager) checkOpen() error {
	if !m.Ready() {
		m.mRejRecovering.Add(1)
		return ErrRecovering
	}
	if m.isDraining() {
		m.mRejDraining.Add(1)
		return ErrDraining
	}
	return nil
}

// checkMemory is the memory-ceiling admission check, a cheap
// runtime/metrics read.
func (m *Manager) checkMemory() error {
	if m.cfg.MemBudgetBytes <= 0 {
		return nil
	}
	if live := int64(obs.LiveHeapBytes()); live > m.cfg.MemBudgetBytes {
		m.mRejOverload.Add(1)
		return fmt.Errorf("%w: live heap %d > budget %d bytes",
			ErrOverloaded, live, m.cfg.MemBudgetBytes)
	}
	return nil
}

// enqueue creates the job for an admitted submission (sub.opts is set)
// and either completes it from the result cache or queues it. canon is the
// graph's canonical serialization when the caller parsed a graph text (nil
// otherwise), and parse and write how long the parse and the serialization
// took (zero when it parsed none). A non-nil textKey or bodyKey records the
// graph text or the request body the submission came from in the raw index.
func (m *Manager) enqueue(sub rawEntry, canon []byte, parse, write time.Duration, textKey, bodyKey *[sha256.Size]byte, idemKey string) (Status, error) {
	graphKey, opts := sub.graphKey, *sub.opts
	// Persist the canonical graph blob before the job becomes durable in the
	// journal: replay can only re-run an interrupted job whose graph it can
	// reload. Content-addressed, so repeats are a stat.
	m.store.ensureGraph(graphKey, canon, sub.g)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.mRejDraining.Add(1)
		return Status{}, ErrDraining
	}
	m.seq++
	j := &Job{
		ID:         jobID(m.seq, graphKey),
		State:      StateQueued,
		Options:    opts,
		GraphSHA:   hex.EncodeToString(graphKey[:]),
		EnqueuedAt: time.Now(),
		graphKey:   graphKey,
		resultKey:  sub.resultKey,
		idemKey:    idemKey,
	}
	j.submitParse, j.submitWrite = parse, write
	j.graph = m.internGraph(graphKey, sub.g)
	sub.g = j.graph
	// An eviction from the raw index only costs a later byte-identical
	// submission one decode or parse.
	if textKey != nil {
		m.texts.put(*textKey, rawEntry{graphKey: graphKey, g: j.graph})
	}
	if bodyKey != nil {
		m.bodies.put(*bodyKey, sub)
	}
	if idemKey != "" {
		m.idem[idemKey] = j.ID
	}
	m.mSubmitted.Add(1)
	if m.store != nil {
		optsJSON, _ := json.Marshal(opts)
		m.store.append(persist.Record{
			Op: persist.OpSubmit, ID: j.ID, Seq: m.seq, GraphSHA: j.GraphSHA,
			Options: optsJSON, IdemKey: idemKey, AtUnixMS: j.EnqueuedAt.UnixMilli(),
		})
	}

	// Full-result cache hit: the job completes at submission, no queue, no
	// phases — the run report records only the hit. An entry evicted from
	// memory (or written by a previous process) comes back from disk.
	if e, src := m.results.get(j.resultKey); src != miss {
		cacheMeta := "result-hit"
		if src == fromDisk {
			m.mDiskHitResult.Add(1)
			cacheMeta = "result-disk-hit"
		} else {
			m.mHitResult.Add(1)
		}
		now := time.Now()
		j.finishCached(e, cacheMeta, now)
		m.retainLocked(j)
		s := j.snapshot()
		if m.store != nil {
			resJSON, _ := json.Marshal(j.Result)
			m.store.append(persist.Record{
				Op: persist.OpDone, ID: j.ID, RKey: m.results.name(j.resultKey),
				Result: resJSON, AtUnixMS: now.UnixMilli(),
			})
		}
		m.mu.Unlock()
		m.mCompleted.Add(1)
		return s, nil
	}

	select {
	case m.queue <- j:
	default:
		// The submit record is already journaled; cancel it there too so a
		// restart does not resurrect a job the client was told was rejected.
		m.store.append(persist.Record{
			Op: persist.OpCancel, ID: j.ID, Err: ErrQueueFull.Error(),
			AtUnixMS: time.Now().UnixMilli(),
		})
		if idemKey != "" {
			delete(m.idem, idemKey)
		}
		m.mu.Unlock()
		m.mRejQueue.Add(1)
		return Status{}, fmt.Errorf("%w: depth %d", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.retainLocked(j)
	s := j.snapshot()
	m.mu.Unlock()
	return s, nil
}

// internGraph deduplicates parsed graphs: concurrent jobs over the same
// content share one immutable *Graph. The registry is bounded; an evicted
// graph only means a later submission re-parses (jobs hold their own
// pointer, so eviction never invalidates queued or running work). Callers
// hold m.mu, so a lookup and its insert are one step.
func (m *Manager) internGraph(key [sha256.Size]byte, g *linkclust.Graph) *linkclust.Graph {
	if shared, ok := m.graphs.get(key); ok {
		return shared
	}
	m.graphs.put(key, g)
	return g
}

// maxJobs bounds retained job records; past it, the oldest finished job is
// evicted first.
const maxJobs = 1024

// retainLocked records the job and evicts the oldest finished records past
// the retention bound.
func (m *Manager) retainLocked(j *Job) {
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	if len(m.order) <= maxJobs {
		return
	}
	for i, id := range m.order {
		old, ok := m.jobs[id]
		if !ok || old.State == StateQueued || old.State == StateRunning {
			continue
		}
		delete(m.jobs, id)
		if old.idemKey != "" && m.idem[old.idemKey] == id {
			delete(m.idem, old.idemKey)
		}
		m.order = append(m.order[:i], m.order[i+1:]...)
		return
	}
}

// runJob executes one queued job on a worker-pool goroutine.
func (m *Manager) runJob(j *Job) {
	m.mActive.Add(1)
	defer m.mActive.Add(-1)
	m.mu.Lock()
	j.State = StateRunning
	j.StartedAt = time.Now()
	m.mu.Unlock()
	m.store.append(persist.Record{Op: persist.OpStart, ID: j.ID, AtUnixMS: j.StartedAt.UnixMilli()})

	rec := linkclust.NewRecorder()
	rec.SetMeta("job", j.ID)
	rec.SetMeta("algorithm", string(j.Options.Algorithm))
	rec.SetMeta("workers", strconv.Itoa(j.Options.Workers))
	if j.submitParse > 0 {
		rec.SetMeta("submit_parse", j.submitParse.String())
		rec.SetMeta("submit_write", j.submitWrite.String())
	}

	ctx := m.baseCtx
	timeout := time.Duration(j.Options.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = m.cfg.DefaultJobTimeout
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	res, merges, pairsHit, err := m.execute(ctx, j, rec)
	cancel()

	m.mu.Lock()
	j.FinishedAt = time.Now()
	j.PairsHit = pairsHit
	switch {
	case err == nil:
		j.State = StateDone
		j.Result = res
		j.merges = merges
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.State = StateCanceled
		j.Err = err.Error()
	default:
		j.State = StateFailed
		j.Err = err.Error()
	}
	if err != nil {
		// Preserve the partial report, tagged like the CLI's error path.
		rec.SetMeta("error", err.Error())
	}
	j.report = rec.Report()
	state, result := j.State, j.Result
	jerr := j.Err
	finished := j.FinishedAt
	m.mu.Unlock()

	switch state {
	case StateDone:
		m.mCompleted.Add(1)
	case StateCanceled:
		m.mCanceled.Add(1)
	default:
		m.mFailed.Add(1)
	}

	if m.store == nil {
		return
	}
	// Journal the terminal record. Two deliberate gaps: a drain-cancelled
	// job gets no record (a redeploy's interrupted jobs must re-run on the
	// next start), and a degraded result gets none either (degraded output
	// is not cached, and a re-run may produce the finer result). Both replay
	// as "interrupted" and re-run.
	at := finished.UnixMilli()
	switch {
	case state == StateDone && !result.Degraded:
		resJSON, _ := json.Marshal(result)
		m.store.append(persist.Record{
			Op: persist.OpDone, ID: j.ID, RKey: m.results.name(j.resultKey),
			Result: resJSON, AtUnixMS: at,
		})
	case state == StateFailed:
		m.store.append(persist.Record{Op: persist.OpFail, ID: j.ID, Err: jerr, AtUnixMS: at})
	case state == StateCanceled && !m.isDraining():
		m.store.append(persist.Record{Op: persist.OpCancel, ID: j.ID, Err: jerr, AtUnixMS: at})
	}
}

// execute runs the cache-aware pipeline: Phase I from the pair-list cache
// when possible, then the sweep the job's options select. A fine-grained
// job goes through linkclust.RunSweep, the facade's one engine dispatch and
// memory-budget ladder, under the job's budget or else
// Config.JobMemBudgetBytes. Only non-degraded, non-error results populate
// the result cache — spilled results qualify because the out-of-core sweep
// is bitwise identical to what any in-memory engine would recompute.
func (m *Manager) execute(ctx context.Context, j *Job, rec *linkclust.Recorder) (*Result, []byte, bool, error) {
	g := j.graph
	pl, src := m.pairs.get(j.graphKey)
	pairsHit := src != miss
	switch src {
	case fromMemory:
		m.mHitPairs.Add(1)
		rec.SetMeta("cache", "pairs-hit")
	case fromDisk:
		m.mDiskHitPairs.Add(1)
		rec.SetMeta("cache", "pairs-disk-hit")
	default:
		var err error
		pl, err = linkclust.SimilarityCtx(ctx, g, j.Options.Workers, rec)
		if err != nil {
			return nil, nil, pairsHit, err
		}
		// Store before the sweep sorts pl in place: the tier keeps a copy,
		// and the durable entry serializes the same master order.
		m.pairs.put(j.graphKey, pl)
	}

	var (
		merges []core.Merge
		res    = &Result{}
	)
	if j.Options.Algorithm == AlgoCoarse {
		// A coarse job has no spill rung to take, so it ignores the budget.
		params := linkclust.DefaultCoarseParams()
		params.Workers = j.Options.Workers
		cres, err := linkclust.CoarseSweepCtx(ctx, g, pl, params, rec)
		if err != nil {
			return nil, nil, pairsHit, err
		}
		merges = cres.Merges
		res.Levels = cres.Levels
		res.FinalClusters = cres.FinalClusters
		res.PairsProcessed = cres.OpsProcessed
	} else {
		opts := linkclust.ClusterOptions{
			Workers:        j.Options.Workers,
			Recorder:       rec,
			Engine:         j.Options.Engine,
			MemBudgetBytes: j.Options.MemBudgetBytes,
			SpillDir:       m.cfg.SpillDir,
		}
		if opts.MemBudgetBytes == 0 {
			opts.MemBudgetBytes = m.cfg.JobMemBudgetBytes
		}
		sres, run, err := linkclust.RunSweep(ctx, g, pl, opts)
		if err != nil {
			return nil, nil, pairsHit, err
		}
		res.Spilled, res.Degraded = run.Spilled, run.Degraded
		merges = sres.Merges
		res.Levels = sres.Levels
		res.FinalClusters = sres.NumClusters()
		res.PairsProcessed = sres.PairsProcessed
	}
	if res.Spilled {
		m.mSpilled.Add(1)
	}
	if res.Degraded {
		m.mDegraded.Add(1)
	}
	res.Merges = len(merges)

	var buf bytes.Buffer
	if err := core.WriteMerges(&buf, g.NumEdges(), merges); err != nil {
		return nil, nil, pairsHit, err
	}
	sum := sha256.Sum256(buf.Bytes())
	res.MergesSHA256 = hex.EncodeToString(sum[:])

	if !res.Degraded {
		m.results.put(j.resultKey, &resultEntry{result: *res, merges: buf.Bytes()})
	}
	return res, buf.Bytes(), pairsHit, nil
}

// Status returns the job's current state snapshot.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Report returns the job's run report: the full instrumented report for
// finished jobs (partial and error-tagged for canceled/failed ones).
func (m *Manager) Report(id string) (*linkclust.RunReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.report == nil {
		return nil, ErrNotFinished
	}
	return j.report, nil
}

// Merges returns the serialized LCMG merge-stream document of a finished
// job. The bytes are immutable; callers must not modify them.
func (m *Manager) Merges(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.State != StateDone {
		return nil, ErrNotFinished
	}
	return j.merges, nil
}

// Metrics snapshots the manager's counters and gauges.
func (m *Manager) Metrics() Metrics {
	var corrupt, writeSkips, degraded int64
	if m.store != nil {
		corrupt = m.store.mCorrupt.Load()
		writeSkips = m.store.mWriteSkips.Load()
		if m.store.degraded.Load() {
			degraded = 1
		}
	}
	return Metrics{
		Submitted:         m.mSubmitted.Load(),
		Completed:         m.mCompleted.Load(),
		Failed:            m.mFailed.Load(),
		Canceled:          m.mCanceled.Load(),
		Degraded:          m.mDegraded.Load(),
		Spilled:           m.mSpilled.Load(),
		RejectedQueueFull: m.mRejQueue.Load(),
		RejectedOverload:  m.mRejOverload.Load(),
		RejectedDraining:  m.mRejDraining.Load(),
		CacheHitResult:    m.mHitResult.Load(),
		CacheHitPairs:     m.mHitPairs.Load(),
		Active:            m.mActive.Load(),
		QueueDepth:        int64(len(m.queue)),
		CachePairEntries:  int64(m.pairs.mem.len()),
		CacheResultEnts:   int64(m.results.mem.len()),
		LiveHeapBytes:     int64(obs.LiveHeapBytes()),

		RejectedRecovering:    m.mRejRecovering.Load(),
		DiskHitResult:         m.mDiskHitResult.Load(),
		DiskHitPairs:          m.mDiskHitPairs.Load(),
		JournalReplayed:       m.mReplayed.Load(),
		JobsRecovered:         m.mRecovered.Load(),
		CorruptEntries:        corrupt,
		PersistWriteSkips:     writeSkips,
		JanitorReclaimedBytes: m.mJanitorBytes.Load(),
		PersistDegraded:       degraded,
	}
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Draining reports whether Drain has begun (used by the HTTP layer's
// health endpoint).
func (m *Manager) Draining() bool { return m.isDraining() }

// Drain shuts the manager down gracefully: new submissions are rejected
// with ErrDraining, in-flight jobs are cancelled through their contexts
// (the engines observe it within one scheduling window and unwind with
// their partial run reports preserved), still-queued jobs run against the
// already-cancelled context and finish immediately as canceled, and Drain
// returns once every worker goroutine has exited — no goroutine outlives
// the call. Persistent managers deliberately journal NO terminal record for
// drain-cancelled jobs: they are interrupted, not cancelled, and the next
// start re-runs them. Idempotent.
func (m *Manager) Drain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	m.cancel()
	if !already {
		// Replay's enqueues are the one sender outside m.mu; it selects on
		// baseCtx (cancelled above), so once replayDone closes no send can
		// follow and closing the queue is safe.
		<-m.replayDone
		m.mu.Lock()
		close(m.queue)
		m.mu.Unlock()
	}
	m.wg.Wait()
	if !already {
		m.store.close()
	}
}

// Close is Drain; it exists for defer symmetry in tests.
func (m *Manager) Close() { m.Drain() }
