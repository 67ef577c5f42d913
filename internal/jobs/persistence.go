package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/persist"
)

// persister couples a Manager to an opened state directory: the job journal,
// the durable cache tier behind the in-memory LRU, graph blobs for re-running
// interrupted jobs, and sweep checkpoints. Every method is nil-receiver-safe
// so the manager's hot paths stay unconditional — a memory-only manager just
// carries a nil *persister.
//
// Failure policy (see DESIGN.md §11): the write side degrades, the read side
// treats corruption as a miss. The first journal append failure flips
// `degraded` and the daemon runs memory-only from then on — results are still
// computed and served, nothing new is promised durable. A failed cache-entry
// write is skipped individually (the memory tier still has it). A corrupt
// entry on read is counted, deleted, dropped from the manifest, and reported
// as a miss; it is never decoded.
type persister struct {
	dir     *persist.Dir
	journal *persist.Journal

	mu       sync.Mutex // guards manifest
	manifest *persist.Manifest

	degraded atomic.Bool

	mCorrupt    atomic.Int64 // entries that failed validation on read
	mWriteSkips atomic.Int64 // entry writes skipped after a write fault
}

// Entry names inside the shared cache/ directory. Pairs are keyed by the
// graph hash, results by the result key; the prefix keeps the two namespaces
// disjoint even though both are SHA-256 hex.
func pairsName(key [32]byte) string  { return "p-" + hex.EncodeToString(key[:]) }
func resultName(key [32]byte) string { return "r-" + hex.EncodeToString(key[:]) }

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
	p := &persister{dir: dir, journal: journal, manifest: dir.LoadManifest()}
	return p, records, reclaimed, nil
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

// isDegraded reports whether the write side gave up (journal fault).
func (p *persister) isDegraded() bool { return p != nil && p.degraded.Load() }

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

// saveCacheEntry writes one durable cache entry and indexes it in the
// manifest. An entry write failure is skipped (memory tier still serves); a
// manifest save failure leaves the entry invisible, which is the documented
// crash-window cost, not an error.
func (p *persister) saveCacheEntry(k persist.Kind, name string, payload []byte) {
	if !p.enabled() {
		return
	}
	if err := p.dir.WriteEntry(k, name, payload); err != nil {
		p.mWriteSkips.Add(1)
		return
	}
	p.mu.Lock()
	p.manifest.Entries[name] = int64(len(payload))
	p.dir.SaveManifest(p.manifest)
	p.mu.Unlock()
}

// loadCacheEntry returns a manifest-indexed entry's payload, or nil on any
// kind of miss. Corrupt entries are counted, removed, and de-indexed.
func (p *persister) loadCacheEntry(k persist.Kind, name string) []byte {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	_, indexed := p.manifest.Entries[name]
	p.mu.Unlock()
	if !indexed {
		return nil
	}
	payload, err := p.dir.ReadEntry(k, name)
	if err != nil {
		p.dropCacheEntry(k, name, err)
		return nil
	}
	return payload
}

// dropCacheEntry removes a bad entry and its manifest line.
func (p *persister) dropCacheEntry(k persist.Kind, name string, err error) {
	if errors.Is(err, persist.ErrCorrupt) {
		p.mCorrupt.Add(1)
	}
	p.dir.RemoveEntry(k, name)
	p.mu.Lock()
	delete(p.manifest.Entries, name)
	p.dir.SaveManifest(p.manifest)
	p.mu.Unlock()
}

// savePairs persists a pair list (in the similarity kernel's unsorted master
// order — the same order the memory tier stores) under the graph hash.
func (p *persister) savePairs(graphKey [32]byte, pl *core.PairList) {
	if !p.enabled() {
		return
	}
	var buf bytes.Buffer
	if err := core.WritePairList(&buf, pl); err != nil {
		return
	}
	p.saveCacheEntry(persist.EntryPairs, pairsName(graphKey), buf.Bytes())
}

// loadPairs returns the durable pair list for graphKey, or nil on a miss.
func (p *persister) loadPairs(graphKey [32]byte) *core.PairList {
	payload := p.loadCacheEntry(persist.EntryPairs, pairsName(graphKey))
	if payload == nil {
		return nil
	}
	pl, err := core.ReadPairList(bytes.NewReader(payload))
	if err != nil {
		// CRC passed but the codec refused: a format skew, not bit rot.
		// Same treatment — miss, drop, recompute.
		p.dropCacheEntry(persist.EntryPairs, pairsName(graphKey), persist.ErrCorrupt)
		return nil
	}
	return pl
}

// Result entry payload: a 4-byte little-endian JSON length, the Result JSON,
// then the serialized LCMG merge document.
func encodeResultPayload(res *Result, merges []byte) []byte {
	rj, _ := json.Marshal(res)
	payload := make([]byte, 4+len(rj)+len(merges))
	binary.LittleEndian.PutUint32(payload, uint32(len(rj)))
	copy(payload[4:], rj)
	copy(payload[4+len(rj):], merges)
	return payload
}

func decodeResultPayload(payload []byte) (*Result, []byte, error) {
	if len(payload) < 4 {
		return nil, nil, persist.ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(n) > uint64(len(payload)-4) {
		return nil, nil, persist.ErrCorrupt
	}
	var res Result
	if err := json.Unmarshal(payload[4:4+n], &res); err != nil {
		return nil, nil, persist.ErrCorrupt
	}
	return &res, payload[4+n:], nil
}

// saveResult persists a finished, non-degraded result under its result key.
func (p *persister) saveResult(resultKey [32]byte, res *Result, merges []byte) {
	if !p.enabled() {
		return
	}
	p.saveCacheEntry(persist.EntryResult, resultName(resultKey), encodeResultPayload(res, merges))
}

// loadResult returns the durable result for resultKey, or ok=false on a miss.
func (p *persister) loadResult(resultKey [32]byte) (*Result, []byte, bool) {
	name := resultName(resultKey)
	payload := p.loadCacheEntry(persist.EntryResult, name)
	if payload == nil {
		return nil, nil, false
	}
	res, merges, err := decodeResultPayload(payload)
	if err != nil {
		p.dropCacheEntry(persist.EntryResult, name, persist.ErrCorrupt)
		return nil, nil, false
	}
	return res, merges, true
}

// ensureGraph persists the canonical serialization of g under its content
// hash (skipped if the blob already exists — content addressing makes the
// check a stat). The blob is what lets replay re-run an interrupted job.
func (p *persister) ensureGraph(graphKey [32]byte, g *linkclust.Graph) {
	if !p.enabled() {
		return
	}
	name := hex.EncodeToString(graphKey[:])
	if _, err := os.Stat(p.dir.EntryPath(persist.EntryGraph, name)); err == nil {
		return
	}
	var canon bytes.Buffer
	if err := linkclust.WriteGraph(&canon, g); err != nil {
		return
	}
	if err := p.dir.WriteEntry(persist.EntryGraph, name, canon.Bytes()); err != nil {
		p.mWriteSkips.Add(1)
	}
}

// loadGraph reads and parses the graph blob for a hex hash.
func (p *persister) loadGraph(shaHex string) (*linkclust.Graph, error) {
	payload, err := p.dir.ReadEntry(persist.EntryGraph, shaHex)
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			p.mCorrupt.Add(1)
			p.dir.RemoveEntry(persist.EntryGraph, shaHex)
		}
		return nil, err
	}
	g, err := linkclust.ReadGraph(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", persist.ErrCorrupt, err)
	}
	return g, nil
}

// saveCkpt atomically replaces the job's durable sweep checkpoint and
// reports whether it is on disk (the caller journals the ckpt record only
// then, so a journaled checkpoint always exists).
func (p *persister) saveCkpt(jobID string, graphKey [32]byte, st *core.SweepState) bool {
	if !p.enabled() {
		return false
	}
	if err := p.dir.WriteEntry(persist.EntryCkpt, jobID, persist.EncodeSweepState(graphKey, st)); err != nil {
		p.mWriteSkips.Add(1)
		return false
	}
	return true
}

// loadCkpt returns the job's checkpoint if it exists, validates, and is
// bound to the same graph; anything else is nil (re-run from scratch, which
// is always correct).
func (p *persister) loadCkpt(jobID string, graphKey [32]byte) *core.SweepState {
	if p == nil {
		return nil
	}
	payload, err := p.dir.ReadEntry(persist.EntryCkpt, jobID)
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			p.mCorrupt.Add(1)
			p.dir.RemoveEntry(persist.EntryCkpt, jobID)
		}
		return nil
	}
	sha, st, err := persist.DecodeSweepState(payload)
	if err != nil || sha != graphKey {
		p.mCorrupt.Add(1)
		p.dir.RemoveEntry(persist.EntryCkpt, jobID)
		return nil
	}
	return st
}

// removeCkpt deletes the job's checkpoint once it has a journaled terminal
// record (drain-interrupted jobs keep theirs — that is the resume path).
func (p *persister) removeCkpt(jobID string) {
	if p == nil {
		return
	}
	p.dir.RemoveEntry(persist.EntryCkpt, jobID)
}

// --- Manager-side replay ---------------------------------------------------

// replay reconstructs the job table from the journal: completed jobs are
// re-served under their original ids, terminal failures are restored as
// records, and interrupted jobs (no terminal record — including jobs a drain
// cancelled) are re-enqueued under their original ids, resuming from their
// deepest valid checkpoint. Runs on its own goroutine; submissions are
// rejected with ErrRecovering until it finishes.
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

// serveRecovered completes j from its durable result entry, reporting whether
// the entry existed and validated. Callers hold no locks.
func (m *Manager) serveRecovered(j *Job, at time.Time) bool {
	res, merges, ok := m.store.loadResult(j.resultKey)
	if !ok {
		return false
	}
	j.State, j.Cached = StateDone, true
	j.StartedAt, j.FinishedAt = at, at
	j.Result, j.merges = res, merges
	rec := linkclust.NewRecorder()
	rec.SetMeta("job", j.ID)
	rec.SetMeta("cache", "recovered")
	rec.SetMeta("algorithm", string(j.Options.Algorithm))
	j.report = rec.Report()
	m.cache.putResult(&resultEntry{key: j.resultKey, result: *res, merges: merges})
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
			j.resume = m.store.loadCkpt(id, graphKey)
			m.mu.Lock()
			j.graph = m.internGraphLocked(graphKey, g)
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
