package jobs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"linkclust"
	"linkclust/internal/persist"
)

// persister couples a Manager to an opened state directory: the job journal,
// the durable side of the pair-list and result tiers (see tier), and graph
// blobs for re-running interrupted jobs. Every method is nil-receiver-safe
// so the manager's hot paths stay unconditional — a memory-only manager just
// carries a nil *persister.
//
// Failure policy (see DESIGN.md §11): the write side degrades, the read side
// treats corruption as a miss. The first journal append failure flips
// `degraded` and the daemon runs memory-only from then on — results are still
// computed and served, nothing new is promised durable. A failed entry write
// is skipped individually (the memory tier still has it). A corrupt entry on
// read is counted, deleted, and reported as a miss; it is never decoded.
type persister struct {
	dir     *persist.Dir
	journal *persist.Journal

	degraded atomic.Bool

	mCorrupt    atomic.Int64 // entries that failed validation on read
	mWriteSkips atomic.Int64 // entry writes skipped after a write fault
}

// openPersister opens the state directory, runs the janitor, and replays the
// journal. The returned records are the replay input for Manager.replay.
func openPersister(stateDir string) (*persister, []persist.Record, int64, error) {
	dir, err := persist.Open(stateDir)
	if err != nil {
		return nil, nil, 0, err
	}
	reclaimed, _ := dir.Janitor() // best-effort: leftovers cost bytes, not correctness
	journal, records, _, err := dir.OpenJournal()
	if err != nil {
		dir.Close()
		return nil, nil, 0, err
	}
	return &persister{dir: dir, journal: journal}, records, reclaimed, nil
}

func (p *persister) close() {
	if p == nil {
		return
	}
	p.journal.Close()
	p.dir.Close()
}

// enabled reports whether writes should still be attempted.
func (p *persister) enabled() bool { return p != nil && !p.degraded.Load() }

// append journals one record; the first failure degrades the persister to
// memory-only (the journal's own error is already sticky, this mirrors it so
// entry writes stop too — a cache entry no journal can reference is wasted
// I/O for interrupted-job recovery, though still valid as a cache).
func (p *persister) append(rec persist.Record) {
	if !p.enabled() {
		return
	}
	if err := p.journal.Append(rec); err != nil {
		p.degraded.Store(true)
	}
}

// write atomically persists one entry (replacing any entry of that name)
// and reports whether it is on disk; a failed write is counted and skipped.
func (p *persister) write(k persist.Kind, name string, payload []byte) bool {
	if !p.enabled() {
		return false
	}
	if err := p.dir.WriteEntry(k, name, payload); err != nil {
		p.mWriteSkips.Add(1)
		return false
	}
	return true
}

// drop counts and removes an entry whose read failed validation. Any other
// read error — a missing file above all — is a plain miss and leaves the
// file alone.
func (p *persister) drop(k persist.Kind, name string, err error) {
	if errors.Is(err, persist.ErrCorrupt) {
		p.mCorrupt.Add(1)
		p.dir.RemoveEntry(k, name)
	}
}

// ensureGraph persists the canonical serialization of g under its content
// hash, skipped if the blob already exists (content addressing makes the
// check a stat). canon is that serialization when the caller has it; nil
// makes ensureGraph write it, and only for a missing blob. The blob is what
// lets replay re-run an interrupted job.
func (p *persister) ensureGraph(graphKey [32]byte, canon []byte, g *linkclust.Graph) {
	if !p.enabled() {
		return
	}
	name := hex.EncodeToString(graphKey[:])
	if _, err := os.Stat(p.dir.EntryPath(persist.EntryGraph, name)); err == nil {
		return
	}
	if canon == nil {
		var buf bytes.Buffer
		if err := linkclust.WriteGraph(&buf, g); err != nil {
			return
		}
		canon = buf.Bytes()
	}
	p.write(persist.EntryGraph, name, canon)
}

// loadGraph reads and parses the graph blob for a hex hash.
func (p *persister) loadGraph(shaHex string) (*linkclust.Graph, error) {
	payload, err := p.dir.ReadEntry(persist.EntryGraph, shaHex)
	if err != nil {
		p.drop(persist.EntryGraph, shaHex, err)
		return nil, err
	}
	g, err := linkclust.ReadGraph(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	return g, nil
}

// --- Manager-side replay ---------------------------------------------------

// replay reconstructs the job table from the journal: completed jobs are
// re-served under their original ids, terminal failures are restored as
// records, and interrupted jobs (no terminal record — including jobs a drain
// cancelled) are re-enqueued under their original ids and re-run from their
// graph blob. Runs on its own goroutine; submissions are rejected with
// ErrRecovering until it finishes.
func (m *Manager) replay(records []persist.Record) {
	defer func() {
		m.readyFlag.Store(true)
		close(m.replayDone)
	}()
	type rjob struct {
		submit   persist.Record
		terminal *persist.Record
	}
	byID := make(map[string]*rjob)
	var order []string
	var maxSeq int64
	for i := range records {
		rec := records[i]
		switch rec.Op {
		case persist.OpSubmit:
			if _, dup := byID[rec.ID]; dup {
				continue
			}
			byID[rec.ID] = &rjob{submit: rec}
			order = append(order, rec.ID)
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case persist.OpDone, persist.OpFail, persist.OpCancel:
			if e := byID[rec.ID]; e != nil {
				e.terminal = &records[i]
			}
		}
	}
	m.mu.Lock()
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	m.mu.Unlock()
	for _, id := range order {
		m.replayJob(id, byID[id].submit, byID[id].terminal)
	}
}

// serveRecovered completes j from the result tier, reporting whether its
// entry existed and validated. Callers hold no locks.
func (m *Manager) serveRecovered(j *Job, at time.Time) bool {
	e, src := m.results.get(j.resultKey)
	if src == miss {
		return false
	}
	j.finishCached(e, "recovered", at)
	return true
}

// replayJob restores one journaled job. Any malformed or unrecoverable input
// degrades toward "re-run" and finally toward a failed record — never toward
// a replay abort.
func (m *Manager) replayJob(id string, submit persist.Record, terminal *persist.Record) {
	var opts Options
	err := json.Unmarshal(submit.Options, &opts)
	if err == nil {
		// An engine name this build does not know was accepted by an older
		// one whose engine has since been removed. The engine never changes
		// the output or the result key, so the job replays under auto, the
		// in-memory engine.
		if linkclust.CheckEngine(opts.Engine) != nil {
			opts.Engine = linkclust.EngineAuto
		}
		opts, err = opts.normalize()
	}
	var graphKey [32]byte
	if err == nil {
		var keyBytes []byte
		keyBytes, err = hex.DecodeString(submit.GraphSHA)
		if err == nil && len(keyBytes) != len(graphKey) {
			err = fmt.Errorf("graph hash has %d bytes, want %d", len(keyBytes), len(graphKey))
		}
		copy(graphKey[:], keyBytes)
	}

	j := &Job{
		ID:         id,
		Options:    opts,
		GraphSHA:   submit.GraphSHA,
		EnqueuedAt: time.UnixMilli(submit.AtUnixMS),
		graphKey:   graphKey,
		resultKey:  opts.resultKey(graphKey),
		idemKey:    submit.IdemKey,
	}
	if submit.IdemKey != "" {
		m.mu.Lock()
		m.idem[submit.IdemKey] = id
		m.mu.Unlock()
	}
	if err != nil {
		// Keep the id and idempotency key answerable: the job becomes a
		// failed record rather than vanishing.
		j.State = StateFailed
		j.Err = fmt.Sprintf("jobs: journaled submit unrecoverable after restart: %v", err)
		j.FinishedAt = time.Now()
		m.mu.Lock()
		m.retainLocked(j)
		m.mu.Unlock()
		return
	}

	rerun := true
	if terminal != nil {
		at := time.UnixMilli(terminal.AtUnixMS)
		switch terminal.Op {
		case persist.OpFail:
			j.State, j.Err, j.FinishedAt, rerun = StateFailed, terminal.Err, at, false
		case persist.OpCancel:
			j.State, j.Err, j.FinishedAt, rerun = StateCanceled, terminal.Err, at, false
		case persist.OpDone:
			// Serve the recorded result under the same id — if its durable
			// entry still validates. A corrupt or missing entry demotes the
			// job to interrupted: it re-runs, and determinism guarantees the
			// recompute is bitwise what the lost entry held.
			rerun = !m.serveRecovered(j, at)
		}
	}
	if rerun && terminal == nil {
		// Crash window between the durable result write and its done record:
		// the entry is content-addressed and CRC-validated, so if it exists it
		// is exactly what a re-run would recompute — serve it directly.
		rerun = !m.serveRecovered(j, time.UnixMilli(submit.AtUnixMS))
	}
	if rerun {
		g, err := m.store.loadGraph(submit.GraphSHA)
		if err != nil {
			j.State = StateFailed
			j.Err = fmt.Sprintf("jobs: graph unavailable after restart: %v", err)
			j.FinishedAt = time.Now()
		} else {
			j.State = StateQueued
			m.mu.Lock()
			j.graph = m.internGraph(graphKey, g)
			m.mu.Unlock()
		}
	}

	m.mu.Lock()
	m.retainLocked(j)
	m.mu.Unlock()
	if j.State != StateQueued {
		return
	}
	select {
	case m.queue <- j:
		m.mRecovered.Add(1)
	case <-m.baseCtx.Done():
		m.mu.Lock()
		j.State = StateCanceled
		j.Err = ErrDraining.Error()
		j.FinishedAt = time.Now()
		m.mu.Unlock()
	}
}
