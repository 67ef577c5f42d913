package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"linkclust"
	"linkclust/internal/fault"
	"linkclust/internal/persist"
)

// In-process recovery tests for the persistent manager: journal replay,
// idempotency across restarts, the durable cache tier behind the memory LRU,
// and journal-fault degradation to memory-only service. The subprocess
// kill-and-restart differential harness lives in cmd/linkclustd.

func openPersistent(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewPersistentManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !m.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("manager never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	return m
}

func resetJobFaults(t *testing.T) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
}

// TestPersistentRecoveryServesCompleted restarts against a state dir holding
// one completed job: the journal replay must re-serve the result under the
// original job id — same merges hash, no recompute — and the idempotency key
// must still map to it.
func TestPersistentRecoveryServesCompleted(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 60, 201)

	m1 := openPersistent(t, Config{Concurrency: 2, StateDir: dir})
	st, err := m1.SubmitIdem(text, Options{}, "idem-a")
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m1, st.ID)
	if st.State != StateDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	wantSHA := st.Result.MergesSHA256
	m1.Close()

	m2 := openPersistent(t, Config{Concurrency: 2, StateDir: dir})
	defer m2.Close()
	got, err := m2.Status(st.ID)
	if err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	if got.State != StateDone || !got.Cached || got.Result.MergesSHA256 != wantSHA {
		t.Fatalf("recovered job = %s cached=%v sha=%s, want done cached %s",
			got.State, got.Cached, got.Result.MergesSHA256, wantSHA)
	}
	if _, err := m2.Merges(st.ID); err != nil {
		t.Fatalf("recovered merges unavailable: %v", err)
	}

	// The idempotency key survived the restart and maps to the original job.
	again, err := m2.SubmitIdem(text, Options{}, "idem-a")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Fatalf("idempotent resubmit returned %s, want original %s", again.ID, st.ID)
	}

	mt := m2.Metrics()
	if mt.JournalReplayed < 3 { // submit + start + done
		t.Fatalf("journal_records_replayed = %d, want >= 3", mt.JournalReplayed)
	}
	if mt.JobsRecovered != 0 {
		t.Fatalf("jobs_recovered = %d for a completed job, want 0 (served, not re-run)", mt.JobsRecovered)
	}
}

// TestPersistentRecoveryRemovedEngine replays a journal whose submit record
// names an engine and option this build no longer has — the removed
// pipelined sweep ("engine":"pipelined","pipeline":true). The done job must
// still be served under its original id with the same merges hash, and its
// idempotency key must still map to it.
func TestPersistentRecoveryRemovedEngine(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 60, 205)

	m1 := openPersistent(t, Config{Concurrency: 2, StateDir: dir})
	st, err := m1.SubmitIdem(text, Options{}, "idem-pipelined")
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, m1, st.ID)
	if st.State != StateDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	wantSHA := st.Result.MergesSHA256
	m1.Close()

	// Rewrite the journal as an older build would have left it.
	pd, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, records, _, err := pd.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(filepath.Join(dir, "journal.wal")); err != nil {
		t.Fatal(err)
	}
	if j, _, _, err = pd.OpenJournal(); err != nil {
		t.Fatal(err)
	}
	rewrote := false
	for _, rec := range records {
		if rec.Op == persist.OpSubmit && rec.ID == st.ID {
			rec.Options = json.RawMessage(`{"algorithm":"sweep","engine":"pipelined","pipeline":true}`)
			rewrote = true
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	pd.Close()
	if !rewrote {
		t.Fatal("no submit record for the job in the journal")
	}

	m2 := openPersistent(t, Config{Concurrency: 2, StateDir: dir})
	defer m2.Close()
	got, err := m2.Status(st.ID)
	if err != nil {
		t.Fatalf("job submitted with a removed engine vanished on replay: %v", err)
	}
	if got.State != StateDone || got.Result.MergesSHA256 != wantSHA {
		t.Fatalf("recovered job = %s (%s) sha=%v, want done %s", got.State, got.Error, got.Result, wantSHA)
	}
	if got.Options.Engine != linkclust.EngineAuto {
		t.Fatalf("recovered engine %q, want %q", got.Options.Engine, linkclust.EngineAuto)
	}
	again, err := m2.SubmitIdem(text, Options{}, "idem-pipelined")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Fatalf("idempotent resubmit returned %s, want original %s", again.ID, st.ID)
	}
}

// controlSHA is the merges hash of an uninterrupted run of text on a
// memory-only manager.
func controlSHA(t *testing.T, text []byte) string {
	t.Helper()
	mc := NewManager(Config{Concurrency: 1})
	defer mc.Close()
	st, err := mc.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st = waitState(t, mc, st.ID)
	if st.State != StateDone {
		t.Fatalf("control job %s (%s)", st.State, st.Error)
	}
	return st.Result.MergesSHA256
}

// drainMidSweep submits text with opts to a persistent manager on dir and
// drains it at the third window cut of the job's sweep, so the journal holds
// the job's submit and start records and no terminal one.
func drainMidSweep(t *testing.T, dir string, text []byte, opts Options) Status {
	t.Helper()
	m := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	drained := make(chan struct{})
	fault.Arm(fault.CancelWindow, 3, func() {
		go func() {
			m.Drain()
			close(drained)
		}()
		<-m.baseCtx.Done() // the sweep sees the drain at this cut
	})
	st, err := m.Submit(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	<-drained
	fault.Reset()
	return st
}

// TestPersistentRecoveryRerunsInterrupted drains mid-job (which journals no
// terminal record — the job is interrupted, not cancelled) and restarts: the
// replay must re-enqueue the job under its id and finish it with the same
// merges hash an uninterrupted run produces.
func TestPersistentRecoveryRerunsInterrupted(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 300, 202)
	wantSHA := controlSHA(t, text)

	m1 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	st, err := m1.Submit(text, Options{Engine: linkclust.EngineParallel, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close() // drain cancels the in-flight job without a terminal record

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	defer m2.Close()
	got := waitState(t, m2, st.ID)
	if got.State != StateDone {
		t.Fatalf("re-run job %s (%s)", got.State, got.Error)
	}
	if got.Result.MergesSHA256 != wantSHA {
		t.Fatalf("re-run merges sha %s, control %s", got.Result.MergesSHA256, wantSHA)
	}
	if mt := m2.Metrics(); mt.JobsRecovered < 1 {
		t.Fatalf("jobs_recovered = %d, want >= 1", mt.JobsRecovered)
	}
}

// TestPersistentResumeRetiredEngine journals a job under the retired engine
// name "serial" and drains it at the third window cut of its sweep. The
// restart must replay it under the same name, re-run its sweep, and finish
// with the merges hash of an uninterrupted run.
func TestPersistentResumeRetiredEngine(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 300, 202)
	wantSHA := controlSHA(t, text)
	st := drainMidSweep(t, dir, text, Options{Engine: linkclust.EngineSerial, Workers: 2})

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	defer m2.Close()
	got := waitState(t, m2, st.ID)
	if got.State != StateDone {
		t.Fatalf("re-run job %s (%s)", got.State, got.Error)
	}
	if got.Options.Engine != linkclust.EngineSerial {
		t.Fatalf("replayed engine %q, want %q", got.Options.Engine, linkclust.EngineSerial)
	}
	if got.Result.MergesSHA256 != wantSHA {
		t.Fatalf("re-run merges sha %s, uninterrupted %s", got.Result.MergesSHA256, wantSHA)
	}
	if mt := m2.Metrics(); mt.JobsRecovered != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", mt.JobsRecovered)
	}
}

// TestPersistentLegacyCheckpointState restarts on a state dir an older build
// left behind mid-sweep: besides the job's submit and start records, its
// journal holds a "ckpt" record and ckpt/ holds the job's checkpoint. The
// legacy record must decode and be ignored, the job must re-run to the
// uninterrupted merges hash, and the janitor must remove ckpt/ and count its
// bytes.
func TestPersistentLegacyCheckpointState(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 300, 203)
	wantSHA := controlSHA(t, text)
	st := drainMidSweep(t, dir, text, Options{Workers: 2})

	// The checkpoint record as older builds framed it into the journal.
	payload := fmt.Appendf(nil, `{"op":"ckpt","id":%q,"pos":8192,"at":%d}`, st.ID, time.Now().UnixMilli())
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	wal, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte("LCPE"), make([]byte, 96)...)
	if err := os.WriteFile(filepath.Join(ckpt, st.ID+".lcpe"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	defer m2.Close()
	got := waitState(t, m2, st.ID)
	if got.State != StateDone {
		t.Fatalf("re-run job %s (%s)", got.State, got.Error)
	}
	if got.Result.MergesSHA256 != wantSHA {
		t.Fatalf("re-run merges sha %s, uninterrupted %s", got.Result.MergesSHA256, wantSHA)
	}
	mt := m2.Metrics()
	if mt.JournalReplayed != 3 { // submit + start + ckpt
		t.Fatalf("journal_records_replayed = %d, want 3", mt.JournalReplayed)
	}
	if mt.JobsRecovered != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", mt.JobsRecovered)
	}
	if mt.JanitorReclaimedBytes < int64(len(legacy)) {
		t.Fatalf("janitor_reclaimed_bytes = %d, want >= %d", mt.JanitorReclaimedBytes, len(legacy))
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("ckpt/ survives the restart (%v)", err)
	}
}

// TestPersistentDiskCacheTiers exercises both durable cache sides across a
// restart: a result evicted from the memory LRU is promoted back from disk,
// and a pair list computed in the previous process serves a new algorithm's
// run without a similarity recompute.
func TestPersistentDiskCacheTiers(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	textA := graphText(t, 60, 204)
	textB := graphText(t, 60, 205)

	m1 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	stA, err := m1.Submit(textA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stA = waitState(t, m1, stA.ID)
	if stA.State != StateDone {
		t.Fatalf("job A %s (%s)", stA.State, stA.Error)
	}
	m1.Close()

	// CacheEntries=1: B's completion evicts A's replayed result from the
	// memory tier, so the resubmission of A must come from disk.
	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir, CacheEntries: 1})
	defer m2.Close()
	stB, err := m2.Submit(textB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stB = waitState(t, m2, stB.ID); stB.State != StateDone {
		t.Fatalf("job B %s (%s)", stB.State, stB.Error)
	}
	hitA, err := m2.Submit(textA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hitA.State != StateDone || !hitA.Cached {
		t.Fatalf("disk-tier resubmit = %s cached=%v, want done cached", hitA.State, hitA.Cached)
	}
	if hitA.Result.MergesSHA256 != stA.Result.MergesSHA256 {
		t.Fatal("disk-tier result differs from the original run")
	}
	if mt := m2.Metrics(); mt.DiskHitResult < 1 {
		t.Fatalf("disk_cache_hits_result = %d, want >= 1", mt.DiskHitResult)
	}

	// Pair-list tier: a coarse run over graph A has a fresh result key but the
	// same graph hash — its similarity phase must be served by the pair list
	// the previous process persisted.
	stC, err := m2.Submit(textA, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if stC = waitState(t, m2, stC.ID); stC.State != StateDone {
		t.Fatalf("coarse job %s (%s)", stC.State, stC.Error)
	}
	if !stC.PairsHit {
		t.Fatal("coarse run recomputed similarity despite the durable pair list")
	}
	if mt := m2.Metrics(); mt.DiskHitPairs < 1 {
		t.Fatalf("disk_cache_hits_pairs = %d, want >= 1", mt.DiskHitPairs)
	}
}

// TestPersistentCacheWithoutIndex restarts against a state dir whose
// cache/manifest.json, the entry index of older builds, is gone: the
// durable entries validate on their own, so both tiers must still serve
// from disk. Replay promotes A's and B's results into a one-entry memory
// tier, which leaves B's in memory, so A's resubmission and its coarse
// run's pair list can only come from disk.
func TestPersistentCacheWithoutIndex(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	textA := graphText(t, 60, 209)
	textB := graphText(t, 60, 210)

	m1 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	var stA Status
	for i, text := range [][]byte{textA, textB} {
		st, err := m1.Submit(text, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st = waitState(t, m1, st.ID); st.State != StateDone {
			t.Fatalf("job %d %s (%s)", i, st.State, st.Error)
		}
		if i == 0 {
			stA = st
		}
	}
	m1.Close()
	if err := os.Remove(filepath.Join(dir, "cache", "manifest.json")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir, CacheEntries: 1})
	defer m2.Close()
	hitA, err := m2.Submit(textA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hitA.State != StateDone || !hitA.Cached || hitA.Result.MergesSHA256 != stA.Result.MergesSHA256 {
		t.Fatalf("resubmit of A = %s cached=%v, want done, cached, the original merges", hitA.State, hitA.Cached)
	}
	coarse, err := m2.Submit(textA, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if coarse = waitState(t, m2, coarse.ID); coarse.State != StateDone || !coarse.PairsHit {
		t.Fatalf("coarse job over A = %s pairs hit %v (%s), want done from the durable pair list", coarse.State, coarse.PairsHit, coarse.Error)
	}
	if mt := m2.Metrics(); mt.DiskHitResult < 1 || mt.DiskHitPairs < 1 {
		t.Fatalf("disk_cache_hits_result = %d, disk_cache_hits_pairs = %d; want both > 0", mt.DiskHitResult, mt.DiskHitPairs)
	}
}

// TestPersistentPairListV1IsMiss overwrites the durable pair list a previous
// process persisted with a well-formed, checksummed entry in the retired
// version-1 pair-list format, which also carried every pair's
// common-neighbor list. The codec refuses it, so the next run over the same
// graph must count it corrupt, drop it, recompute Phase I, and produce the
// merges of a run that never saw the entry.
func TestPersistentPairListV1IsMiss(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 60, 208)

	m1 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	st, err := m1.Submit(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st = waitState(t, m1, st.ID); st.State != StateDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	m1.Close()

	// A version-1 document: magic, version 1, unsorted, one pair (0,1) with
	// similarity 0.5 and one common neighbor, 2.
	v1 := []byte("LCPL")
	for _, v := range []uint32{1, 0, 1, 0, 1} {
		v1 = binary.LittleEndian.AppendUint32(v1, v)
	}
	v1 = binary.LittleEndian.AppendUint64(v1, 0x3fe0000000000000)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint32(v1, 2)
	pd, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	replaced := 0
	for _, f := range files {
		if name, ok := strings.CutSuffix(f.Name(), ".lcpe"); ok && strings.HasPrefix(name, "p-") {
			if err := pd.WriteEntry(persist.EntryPairs, name, v1); err != nil {
				t.Fatal(err)
			}
			replaced++
		}
	}
	pd.Close()
	if replaced != 1 {
		t.Fatalf("replaced %d durable pair lists, want 1", replaced)
	}

	control := NewManager(Config{Concurrency: 1})
	defer control.Close()
	want, err := control.Submit(text, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if want = waitState(t, control, want.ID); want.State != StateDone {
		t.Fatalf("control job %s (%s)", want.State, want.Error)
	}

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	defer m2.Close()
	got, err := m2.Submit(text, Options{Algorithm: AlgoCoarse})
	if err != nil {
		t.Fatal(err)
	}
	if got = waitState(t, m2, got.ID); got.State != StateDone {
		t.Fatalf("job over a v1 pair list %s (%s)", got.State, got.Error)
	}
	if got.PairsHit {
		t.Fatal("a version-1 durable pair list was served as a hit")
	}
	if mt := m2.Metrics(); mt.CorruptEntries != 1 || mt.DiskHitPairs != 0 {
		t.Fatalf("persist_corrupt_entries = %d, disk_cache_hits_pairs = %d; want 1 and 0", mt.CorruptEntries, mt.DiskHitPairs)
	}
	if got.Result.MergesSHA256 != want.Result.MergesSHA256 {
		t.Fatalf("merges sha %s after dropping the v1 entry, control %s", got.Result.MergesSHA256, want.Result.MergesSHA256)
	}
}

// TestPersistentDegradedJournal arms a journal write fault: the first append
// fails, the manager flips to memory-only — jobs still run and serve — and
// nothing new is promised durable, so a restart finds an empty journal.
func TestPersistentDegradedJournal(t *testing.T) {
	resetJobFaults(t)
	dir := t.TempDir()
	text := graphText(t, 60, 206)

	m1 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	fault.Arm(fault.JournalAppend, 1, nil)
	st, err := m1.SubmitIdem(text, Options{}, "")
	if err != nil {
		t.Fatalf("submit under journal fault: %v", err)
	}
	st = waitState(t, m1, st.ID)
	if st.State != StateDone {
		t.Fatalf("degraded job %s (%s)", st.State, st.Error)
	}
	if mt := m1.Metrics(); mt.PersistDegraded != 1 {
		t.Fatalf("persist_degraded = %d, want 1", mt.PersistDegraded)
	}
	// A second job through the degraded manager still works.
	st2, err := m1.Submit(graphText(t, 60, 207), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2 = waitState(t, m1, st2.ID); st2.State != StateDone {
		t.Fatalf("second degraded job %s (%s)", st2.State, st2.Error)
	}
	m1.Close()
	fault.Reset()

	m2 := openPersistent(t, Config{Concurrency: 1, StateDir: dir})
	defer m2.Close()
	if _, err := m2.Status(st.ID); err == nil {
		t.Fatal("degraded-mode job resurrected after restart — it was never journaled")
	}
	if mt := m2.Metrics(); mt.JournalReplayed != 0 {
		t.Fatalf("journal_records_replayed = %d after degraded run, want 0", mt.JournalReplayed)
	}
}
