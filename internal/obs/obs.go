// Package obs is the pipeline's observability layer: monotonic, nestable
// phase timers, named counters, and memory-statistics deltas, collected by a
// Recorder and serialized as a RunReport. Every pipeline entry point accepts
// an optional *Recorder; a nil Recorder is valid and turns every call into a
// cheap no-op, so instrumented code paths cost nothing measurable when
// observability is off.
//
// Phases are recorded by the coordinating goroutine and nest lexically:
//
//	end := rec.Phase("sweep")
//	defer end()
//	...
//	endSort := rec.Phase("sort") // recorded as "sweep/sort"
//	pl.Sort()
//	endSort()
//
// Repeated phases with the same path aggregate (wall time sums, the
// occurrence count increments), so per-chunk timers stay bounded no matter
// how many chunks a run processes. Counters (Add) are safe to call from any
// goroutine; Phase/end pairs must be issued by one goroutine at a time —
// the pipeline's worker fan-outs happen *inside* phases, never across them.
package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Recorder accumulates phase timings, counters and metadata for one pipeline
// run. The zero value is not usable; construct with New. All methods are
// safe on a nil receiver (they do nothing), which is how disabled
// instrumentation is expressed.
type Recorder struct {
	mu       sync.Mutex
	started  time.Time
	stack    []string
	phases   []phaseAgg
	byPath   map[string]int
	counters map[string]int64
	meta     map[string]string
	memStart runtime.MemStats
}

type phaseAgg struct {
	path  string
	depth int
	wall  time.Duration
	count int64
}

// New returns a Recorder with the run clock started and the baseline memory
// statistics captured.
func New() *Recorder {
	r := &Recorder{
		byPath:   make(map[string]int),
		counters: make(map[string]int64),
		meta:     make(map[string]string),
		started:  time.Now(),
	}
	runtime.ReadMemStats(&r.memStart)
	return r
}

// noop is returned by Phase on a nil Recorder so disabled instrumentation
// allocates nothing.
var noop = func() {}

// Phase starts a timed phase and returns the function that ends it. Phases
// started before the returned end function runs are recorded as children
// (path segments joined with "/"). Ending out of order is tolerated: the
// end function closes every phase opened after its own.
func (r *Recorder) Phase(name string) (end func()) {
	if r == nil {
		return noop
	}
	start := time.Now()
	r.mu.Lock()
	r.stack = append(r.stack, name)
	depth := len(r.stack) - 1
	// Register at start so parents precede their children in the report
	// (children necessarily end first).
	agg := r.register()
	r.mu.Unlock()
	return func() {
		wall := time.Since(start)
		r.mu.Lock()
		defer r.mu.Unlock()
		// Unwind to (and including) this phase's frame; tolerate an
		// already-unwound stack from an out-of-order end.
		for i := len(r.stack) - 1; i >= 0; i-- {
			if r.stack[i] == name && i == depth {
				r.stack = r.stack[:i]
				break
			}
			if i == 0 {
				return // frame already closed
			}
		}
		r.phases[agg].wall += wall
		r.phases[agg].count++
	}
}

// AddPhase records d as one more occurrence of phase name, nested under the
// phases open now, for work timed in pieces while a sibling phase was open
// (the coarse sweep sorts its list lazily, inside its chunks).
func (r *Recorder) AddPhase(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stack = append(r.stack, name)
	agg := r.register()
	r.stack = r.stack[:len(r.stack)-1]
	r.phases[agg].wall += d
	r.phases[agg].count++
}

// register returns the aggregate of the phase path the stack names,
// creating it on first use. r.mu must be held.
func (r *Recorder) register() int {
	path := strings.Join(r.stack, "/")
	agg, ok := r.byPath[path]
	if !ok {
		agg = len(r.phases)
		r.byPath[path] = agg
		r.phases = append(r.phases, phaseAgg{path: path, depth: len(r.stack) - 1})
	}
	return agg
}

// Add increments a named counter. Safe from any goroutine.
func (r *Recorder) Add(counter string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[counter] += delta
	r.mu.Unlock()
}

// Counter returns the current value of a named counter (0 if never added).
func (r *Recorder) Counter(counter string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[counter]
}

// SetMeta attaches a key/value annotation to the run (algorithm name,
// worker count, input sizes). Later calls overwrite earlier ones.
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = value
	r.mu.Unlock()
}

// PhaseReport is one aggregated phase of a RunReport.
type PhaseReport struct {
	// Path is the "/"-joined nesting path, e.g. "cluster/sweep/sort".
	Path string `json:"path"`
	// Depth is the nesting depth (0 for top-level phases).
	Depth int `json:"depth"`
	// WallNS is the summed wall-clock time of all occurrences.
	WallNS int64 `json:"wall_ns"`
	// Count is the number of occurrences aggregated into WallNS.
	Count int64 `json:"count"`
}

// MemReport is the runtime.MemStats delta between New and Report.
type MemReport struct {
	// HeapAllocDeltaBytes is the live-heap growth over the run; negative
	// values (a GC freed more than the run retained) are reported as-is.
	HeapAllocDeltaBytes int64 `json:"heap_alloc_delta_bytes"`
	// TotalAllocDeltaBytes is the cumulative allocation volume of the run.
	TotalAllocDeltaBytes uint64 `json:"total_alloc_delta_bytes"`
	// MallocsDelta is the number of heap objects allocated during the run.
	MallocsDelta uint64 `json:"mallocs_delta"`
	// NumGCDelta is the number of garbage-collection cycles during the run.
	NumGCDelta uint32 `json:"num_gc_delta"`
}

// RunReport is the serializable summary of one instrumented run.
type RunReport struct {
	// Schema identifies the report format.
	Schema string `json:"schema"`
	// StartedAt is the wall-clock time New was called.
	StartedAt time.Time `json:"started_at"`
	// WallNS is the total run time from New to Report.
	WallNS int64 `json:"wall_ns"`
	// Phases lists aggregated phases in first-start order.
	Phases []PhaseReport `json:"phases"`
	// Counters holds the named counters (pairs processed, chain rewrites,
	// replica merges, ...).
	Counters map[string]int64 `json:"counters"`
	// Mem is the memory-statistics delta over the run.
	Mem MemReport `json:"mem"`
	// Meta holds free-form annotations set with SetMeta.
	Meta map[string]string `json:"meta,omitempty"`
}

// SchemaV1 is the RunReport schema identifier this package emits.
const SchemaV1 = "linkclust/run-report/v1"

// Report finalizes the run: it stops the run clock, captures the closing
// memory statistics, and returns the summary. The Recorder remains usable;
// a later Report reflects the longer run. Returns nil on a nil Recorder.
func (r *Recorder) Report() *RunReport {
	if r == nil {
		return nil
	}
	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &RunReport{
		Schema:    SchemaV1,
		StartedAt: r.started,
		WallNS:    time.Since(r.started).Nanoseconds(),
		Phases:    make([]PhaseReport, len(r.phases)),
		Counters:  make(map[string]int64, len(r.counters)),
		Mem: MemReport{
			HeapAllocDeltaBytes:  int64(memEnd.HeapAlloc) - int64(r.memStart.HeapAlloc),
			TotalAllocDeltaBytes: memEnd.TotalAlloc - r.memStart.TotalAlloc,
			MallocsDelta:         memEnd.Mallocs - r.memStart.Mallocs,
			NumGCDelta:           memEnd.NumGC - r.memStart.NumGC,
		},
	}
	for i, p := range r.phases {
		rep.Phases[i] = PhaseReport{Path: p.path, Depth: p.depth, WallNS: p.wall.Nanoseconds(), Count: p.count}
	}
	for k, v := range r.counters {
		rep.Counters[k] = v
	}
	if len(r.meta) > 0 {
		rep.Meta = make(map[string]string, len(r.meta))
		for k, v := range r.meta {
			rep.Meta[k] = v
		}
	}
	return rep
}

// WriteJSON serializes the report as indented JSON.
func (rep *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Fprint renders the report as an aligned text table — the human-readable
// companion of WriteJSON, used by the CLIs' breakdown output.
func (rep *RunReport) Fprint(w io.Writer) error {
	if _, err := io.WriteString(w, "phase breakdown:\n"); err != nil {
		return err
	}
	for _, p := range rep.Phases {
		pad := strings.Repeat("  ", p.Depth)
		name := p.Path
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		line := pad + name
		if p.Count > 1 {
			line += " (x" + strconv.FormatInt(p.Count, 10) + ")"
		}
		if _, err := io.WriteString(w, "  "+padRight(line, 34)+" "+
			time.Duration(p.WallNS).Round(time.Microsecond).String()+"\n"); err != nil {
			return err
		}
	}
	if len(rep.Counters) > 0 {
		if _, err := io.WriteString(w, "counters:\n"); err != nil {
			return err
		}
		keys := make([]string, 0, len(rep.Counters))
		for k := range rep.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := io.WriteString(w, "  "+padRight(k, 34)+" "+strconv.FormatInt(rep.Counters[k], 10)+"\n"); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "total wall: "+time.Duration(rep.WallNS).Round(time.Microsecond).String()+"\n")
	return err
}

func padRight(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}
