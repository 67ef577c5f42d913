// Package jobs is the service layer behind the linkclustd daemon: a bounded
// job queue feeding a worker pool that runs the facade's cancellable
// clustering pipelines over shared immutable graphs, with content-addressed
// caching of similarity pair lists and dendrograms, memory-budget admission
// control, and graceful drain. The HTTP handler in this package is a thin
// JSON shell over the Manager; cmd/linkclustd adds only flags, listening,
// and signal handling.
//
// Determinism is what makes the cache sound: both sweeps in the facade (the
// in-memory windowed engine and spill) produce a bitwise-identical merge
// stream for a given (graph, algorithm) at any worker count, so worker
// count and engine are deliberately excluded from cache keys — a result
// computed at T=8 in memory serves a T=1 spill request verbatim.
// See DESIGN.md §8.
package jobs

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"time"

	"linkclust"
)

// Algorithm selects the sweeping phase of a job.
type Algorithm string

const (
	// AlgoSweep is the fine-grained sweep (Algorithm 2); the engine — in
	// memory or spill — follows Options.Engine and never changes the
	// output.
	AlgoSweep Algorithm = "sweep"
	// AlgoCoarse is the coarse-grained sweep of Section V with the default
	// parameters (γ=2, φ=100, δ0=1000, η0=8).
	AlgoCoarse Algorithm = "coarse"
)

// Options configures one clustering job. The zero value is valid: AlgoSweep,
// the in-memory engine, the manager's default timeout and memory budget.
type Options struct {
	// Algorithm selects the sweeping phase; empty means AlgoSweep.
	Algorithm Algorithm `json:"algorithm,omitempty"`
	// Workers is the per-job worker count, normalized like every facade
	// entry point (see par.Normalize). Does not affect the output.
	Workers int `json:"workers,omitempty"`
	// Engine selects the sweep engine for AlgoSweep jobs: "spill" runs the
	// out-of-core sweep over the daemon's spill directory, and "parallel",
	// "auto" (the default) and "serial" all run the in-memory windowed
	// engine — the last two are retired names kept so existing clients and
	// journals stay valid. Does not affect the output, so it is excluded from result cache keys like Workers —
	// spilled results are cacheable under the same keys precisely because
	// the spilled merge stream is bitwise identical.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS bounds the job's run time; 0 inherits the manager default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MemBudgetBytes is the per-job memory budget: pair-list bytes above
	// the budget choose the spill rung, so a sweep job whose list exceeds
	// it spills the list to disk and sweeps out of core (bitwise-identical
	// output, still cacheable), degrading fine→coarse only if the spill
	// itself fails (see linkclust.ClusterOptions.MemBudgetBytes). Coarse
	// jobs ignore it. 0 inherits the manager default; negative disables the
	// budget for this job.
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// normalize applies defaults and validates the algorithm.
func (o Options) normalize() (Options, error) {
	if o.Algorithm == "" {
		o.Algorithm = AlgoSweep
	}
	if o.Algorithm != AlgoSweep && o.Algorithm != AlgoCoarse {
		return o, fmt.Errorf("jobs: unknown algorithm %q (want %q or %q)", o.Algorithm, AlgoSweep, AlgoCoarse)
	}
	if o.Engine == "" {
		o.Engine = linkclust.EngineAuto
	}
	if err := linkclust.CheckEngine(o.Engine); err != nil {
		return o, fmt.Errorf("jobs: %w", err)
	}
	if o.TimeoutMS < 0 {
		return o, fmt.Errorf("jobs: negative timeout_ms %d", o.TimeoutMS)
	}
	return o, nil
}

// resultKey is the content address of a job's output: SHA-256 over the
// canonical graph bytes' hash and the result-affecting options. Worker
// count and engine are excluded — the engines are bitwise identical at any
// worker count — and so are the timeout and memory budget, because a
// run that degrades or is cancelled never populates the cache (only clean,
// non-degraded results are stored; see Manager.execute).
func (o Options) resultKey(graphKey [sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(graphKey[:])
	h.Write([]byte("algo=" + string(o.Algorithm)))
	if o.Algorithm == AlgoCoarse {
		p := linkclust.DefaultCoarseParams()
		h.Write([]byte(fmt.Sprintf(";gamma=%g;phi=%d;delta0=%d;eta0=%g", p.Gamma, p.Phi, p.Delta0, p.Eta0)))
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Result summarizes a finished clustering run. MergesSHA256 is the SHA-256
// of the serialized merge stream (the LCMG document served at
// /jobs/{id}/merges) — the value a client compares against a local
// `linkclust cluster -save-merges` file to confirm bitwise identity.
type Result struct {
	Levels         int32  `json:"levels"`
	Merges         int    `json:"merges"`
	FinalClusters  int    `json:"final_clusters"`
	PairsProcessed int64  `json:"pairs_processed"`
	MergesSHA256   string `json:"merges_sha256"`
	Degraded       bool   `json:"degraded,omitempty"`
	// Spilled marks a run that went through the out-of-core sweep (explicit
	// Engine "spill" or budget admission). Informational only: a spilled
	// merge stream is bitwise identical to an in-memory one.
	Spilled bool `json:"spilled,omitempty"`
}

// Job is one queued/running/finished clustering request. Fields are
// snapshotted by Manager.Status; external readers never touch a live Job.
type Job struct {
	ID         string
	State      State
	Options    Options
	GraphSHA   string // hex of the canonical graph bytes' SHA-256
	Cached     bool   // result served from the dendrogram cache
	PairsHit   bool   // similarity phase skipped via the pair-list cache
	EnqueuedAt time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	Err        string
	Result     *Result

	graphKey  [sha256.Size]byte
	resultKey [sha256.Size]byte
	graph     *linkclust.Graph // shared immutable; interned by the manager
	idemKey   string           // the client idempotency key, dropped with the record
	report    *linkclust.RunReport
	merges    []byte // serialized LCMG document

	// submitParse and submitWrite are how long its submission's parse and
	// canonical write took; zero when the submission parsed nothing.
	submitParse, submitWrite time.Duration
}

// Status is the JSON view of a job served by the HTTP layer.
type Status struct {
	ID         string    `json:"id"`
	State      State     `json:"state"`
	Options    Options   `json:"options"`
	GraphSHA   string    `json:"graph_sha256"`
	Cached     bool      `json:"cached"`
	PairsHit   bool      `json:"pairs_cache_hit"`
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	Error      string    `json:"error,omitempty"`
	Result     *Result   `json:"result,omitempty"`
}

// snapshot renders the job for external readers; callers hold the manager
// lock.
func (j *Job) snapshot() Status {
	s := Status{
		ID:         j.ID,
		State:      j.State,
		Options:    j.Options,
		GraphSHA:   j.GraphSHA,
		Cached:     j.Cached,
		PairsHit:   j.PairsHit,
		EnqueuedAt: j.EnqueuedAt,
		StartedAt:  j.StartedAt,
		FinishedAt: j.FinishedAt,
		Error:      j.Err,
	}
	if j.Result != nil {
		r := *j.Result
		s.Result = &r
	}
	return s
}

// finishCached completes j at time at from a cached result; cacheMeta is
// the run report's "cache" meta, naming where the result came from. The
// report records nothing else: a cached job runs no phase.
func (j *Job) finishCached(e *resultEntry, cacheMeta string, at time.Time) {
	j.State, j.Cached = StateDone, true
	j.StartedAt, j.FinishedAt = at, at
	r := e.result
	j.Result, j.merges = &r, e.merges
	rec := linkclust.NewRecorder()
	rec.SetMeta("job", j.ID)
	rec.SetMeta("cache", cacheMeta)
	rec.SetMeta("algorithm", string(j.Options.Algorithm))
	j.report = rec.Report()
}

// jobID builds a debuggable id: a sequence number plus a graph-hash prefix.
func jobID(seq int64, graphKey [sha256.Size]byte) string {
	return "j" + strconv.FormatInt(seq, 10) + "-" + fmt.Sprintf("%x", graphKey[:4])
}
