package main

// Kill-and-restart differential harness: builds the real linkclustd binary,
// runs it against a state directory with a deterministic fault armed through
// LINKCLUSTD_FAULT, lets the fault SIGKILL the process at an exact
// persistence operation, restarts a clean daemon against the same directory,
// and asserts the recovery invariants of DESIGN.md §11 — recovered jobs
// finish, served merge streams are bitwise identical to an uninterrupted
// control run computed in-process, idempotency keys still map to the original
// job, and the janitor leaves no temp files behind.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"linkclust"
	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// --- binary build (once per test-binary run) --------------------------------

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func daemonBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "linkclustd-bin-")
		if buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, "linkclustd"), ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Cleanup(func() {}) // keep the dir for the whole run; TestMain removes it
	return filepath.Join(buildDir, "linkclustd")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// --- daemon subprocess ------------------------------------------------------

type daemon struct {
	cmd   *exec.Cmd
	url   string
	waitC chan error
	logs  *syncBuffer
}

// startDaemon launches the built binary on an ephemeral port with the given
// state dir and extra flags; env entries (e.g. LINKCLUSTD_FAULT=...) are
// appended to the inherited environment.
func startDaemon(t *testing.T, stateDir string, extraArgs []string, env ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-state-dir", stateDir}, extraArgs...)
	cmd := exec.Command(daemonBin(t), args...)
	cmd.Env = append(os.Environ(), env...)
	logs := &syncBuffer{}
	cmd.Stderr = logs
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, waitC: make(chan error, 1), logs: logs}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			logs.Write([]byte(line + "\n"))
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrC <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { d.waitC <- cmd.Wait() }()
	select {
	case addr := <-addrC:
		d.url = "http://" + addr
	case err := <-d.waitC:
		t.Fatalf("daemon exited before listening: %v\n%s", err, logs.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never reported its address\n%s", logs.String())
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-d.waitC:
		case <-time.After(5 * time.Second):
		}
	})
	return d
}

// waitExit blocks until the daemon process exits and returns cmd.Wait's error
// (non-nil for a SIGKILLed process, nil for a clean drain).
func (d *daemon) waitExit(t *testing.T) error {
	t.Helper()
	select {
	case err := <-d.waitC:
		d.waitC <- err // allow repeat calls / the cleanup to re-read
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon did not exit\n%s", d.logs.String())
		return nil
	}
}

// shutdown SIGTERMs the daemon and requires a clean exit.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.waitExit(t); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, d.logs.String())
	}
}

// waitReady polls /readyz until it answers 200 (connection errors included in
// the wait: the listener may not be up yet on a fresh start).
func (d *daemon) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready\n%s", d.logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- HTTP helpers -----------------------------------------------------------

type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// submitJob POSTs a job; connection errors are returned (not fatal) because
// several scenarios kill the daemon inside the submission path.
func (d *daemon) submitJob(graphText string, options map[string]any, idemKey string) (int, jobStatus, error) {
	body, _ := json.Marshal(map[string]any{"graph": graphText, "options": options})
	req, _ := http.NewRequest("POST", d.url+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st, nil
}

// pollDone polls the job until a terminal state and requires "done".
func (d *daemon) pollDone(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.url + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		var st jobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "canceled":
			t.Fatalf("job %s: %s (%s)\n%s", id, st.State, st.Error, d.logs.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) merges(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs/" + id + "/merges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET merges = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func (d *daemon) metrics(t *testing.T) map[string]int64 {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// --- control oracle ---------------------------------------------------------

// crashGraph renders a deterministic random graph in the text format.
func crashGraph(t *testing.T, n int, seed uint64) string {
	t.Helper()
	g := graph.ErdosRenyi(n, 0.15, rng.New(seed))
	var buf bytes.Buffer
	if err := linkclust.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// controlMerges computes, in-process and uninterrupted, the exact LCMG bytes
// the daemon must serve for a fine-grained sweep over text.
func controlMerges(t *testing.T, text string) []byte {
	t.Helper()
	g, err := linkclust.ReadGraph(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{Workers: 2, Engine: linkclust.EngineParallel})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteMerges(&buf, g.NumEdges(), res.Merges); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireSameMerges(t *testing.T, got, want []byte, label string) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: served merges differ from control (%d vs %d bytes, sha %x vs %x)",
			label, len(got), len(want), sha256.Sum256(got), sha256.Sum256(want))
	}
}

// assertNoTemps fails if any .tmp file survives under the state dir — the
// startup janitor must have collected every orphan.
func assertNoTemps(t *testing.T, stateDir string) {
	t.Helper()
	filepath.WalkDir(stateDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("orphaned temp file survived restart: %s", path)
		}
		return nil
	})
}

// --- scenarios --------------------------------------------------------------

// TestCrashAtFirstJournalAppend kills the daemon at the very first journal
// write — the submit record of the first job. The client's POST dies with the
// process; a restart must come up clean (nothing to replay), accept the
// resubmission, and produce the control merge stream.
func TestCrashAtFirstJournalAppend(t *testing.T) {
	state := t.TempDir()
	text := crashGraph(t, 60, 101)
	control := controlMerges(t, text)

	d := startDaemon(t, state, nil, "LINKCLUSTD_FAULT=journal-append:1:kill")
	d.waitReady(t)
	if _, _, err := d.submitJob(text, nil, ""); err == nil {
		// The fault fires inside the submission path; depending on kernel
		// timing the response may or may not make it out. Either is fine —
		// what matters is that the process dies and the restart is clean.
		t.Log("submission response escaped before the kill")
	}
	if err := d.waitExit(t); err == nil {
		t.Fatal("daemon exited cleanly, expected SIGKILL via fault")
	}

	d2 := startDaemon(t, state, nil)
	d2.waitReady(t)
	if got := d2.metrics(t)["journal_records_replayed"]; got != 0 {
		t.Fatalf("journal_records_replayed = %d after pre-append kill, want 0", got)
	}
	code, st, err := d2.submitJob(text, nil, "")
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		t.Fatalf("resubmit after restart = %d, %v", code, err)
	}
	st = d2.pollDone(t, st.ID)
	requireSameMerges(t, d2.merges(t, st.ID), control, "post-restart run")
	assertNoTemps(t, state)
	d2.shutdown(t)
}

// TestCrashAtDoneRecord kills the daemon while it appends the job's done
// record — after the result entry hit disk. Replay sees an interrupted job
// whose durable result validates and must re-serve it, bitwise, under the
// original job id, without recomputing.
func TestCrashAtDoneRecord(t *testing.T) {
	state := t.TempDir()
	text := crashGraph(t, 60, 102)
	control := controlMerges(t, text)

	// Journal-append ordinals: 1 = submit, 2 = start, 3 = done.
	d := startDaemon(t, state, []string{"-concurrency", "1"},
		"LINKCLUSTD_FAULT=journal-append:3:kill")
	d.waitReady(t)
	code, st, err := d.submitJob(text, nil, "")
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	if err := d.waitExit(t); err == nil {
		t.Fatal("daemon exited cleanly, expected SIGKILL at done-record append")
	}

	d2 := startDaemon(t, state, nil)
	d2.waitReady(t)
	rst := d2.pollDone(t, st.ID)
	if !rst.Cached {
		t.Errorf("recovered job not served from durable result (cached=false)")
	}
	requireSameMerges(t, d2.merges(t, st.ID), control, "recovered result")
	assertNoTemps(t, state)
	d2.shutdown(t)
}

// TestCrashMidSweepReruns kills the daemon at the third window cut of a
// windowed-parallel sweep, after the job's graph blob and pair list are on
// disk and before any result is. The restart must re-enqueue the job, re-run
// its sweep, and still serve the control merge stream bitwise.
func TestCrashMidSweepReruns(t *testing.T) {
	state := t.TempDir()
	// Big enough that the sweep spans many 8192-op windows, so the third
	// cut lands squarely mid-sweep.
	text := crashGraph(t, 300, 103)
	control := controlMerges(t, text)

	d := startDaemon(t, state, []string{"-concurrency", "1"},
		"LINKCLUSTD_FAULT=cancel-window:3:kill")
	d.waitReady(t)
	code, st, err := d.submitJob(text, map[string]any{"engine": "parallel", "workers": 2}, "")
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	if err := d.waitExit(t); err == nil {
		t.Fatal("daemon exited cleanly, expected SIGKILL at the third window cut")
	}

	d2 := startDaemon(t, state, []string{"-concurrency", "1"})
	d2.waitReady(t)
	d2.pollDone(t, st.ID)
	requireSameMerges(t, d2.merges(t, st.ID), control, "re-run sweep")
	if m := d2.metrics(t); m["jobs_recovered"] < 1 {
		t.Errorf("jobs_recovered = %d, want >= 1", m["jobs_recovered"])
	}
	assertNoTemps(t, state)
	d2.shutdown(t)
}

// TestKillMidDrain interrupts a drain: SIGTERM while a job runs (the drain
// cancels it without a terminal journal record), then SIGKILL shortly after
// so the drain itself may be cut down mid-flight. Whichever way the process
// dies, the restart must re-run the job to completion with control output.
func TestKillMidDrain(t *testing.T) {
	state := t.TempDir()
	text := crashGraph(t, 300, 104)
	control := controlMerges(t, text)

	d := startDaemon(t, state, []string{"-concurrency", "1"})
	d.waitReady(t)
	code, st, err := d.submitJob(text, map[string]any{"engine": "parallel", "workers": 2}, "")
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	time.Sleep(20 * time.Millisecond)
	d.cmd.Process.Kill()
	d.waitExit(t)

	d2 := startDaemon(t, state, []string{"-concurrency", "1"})
	d2.waitReady(t)
	d2.pollDone(t, st.ID)
	requireSameMerges(t, d2.merges(t, st.ID), control, "post-drain re-run")
	assertNoTemps(t, state)
	d2.shutdown(t)
}

// TestResultCorruptionRerunsOnRestart completes a job cleanly, flips a byte
// in the durable result entry on disk, and restarts. Replay must treat the
// corrupt entry as a miss — never serve it — and re-run the job to the
// bitwise control output.
func TestResultCorruptionRerunsOnRestart(t *testing.T) {
	state := t.TempDir()
	text := crashGraph(t, 60, 105)
	control := controlMerges(t, text)

	d := startDaemon(t, state, nil)
	d.waitReady(t)
	code, st, err := d.submitJob(text, nil, "")
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	d.pollDone(t, st.ID)
	d.shutdown(t)

	entries, err := filepath.Glob(filepath.Join(state, "cache", "r-*.lcpe"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("result entries on disk = %v (err %v), want exactly 1", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, state, nil)
	d2.waitReady(t)
	rst := d2.pollDone(t, st.ID)
	if rst.Cached {
		t.Error("corrupt result served as cached — must have been recomputed")
	}
	requireSameMerges(t, d2.merges(t, st.ID), control, "recomputed after corruption")
	if got := d2.metrics(t)["persist_corrupt_entries"]; got < 1 {
		t.Errorf("persist_corrupt_entries = %d, want >= 1", got)
	}
	d2.shutdown(t)
}

// TestIdempotencyAcrossRestart submits with an Idempotency-Key, restarts the
// daemon cleanly, and resubmits under the same key: the original job id must
// come back, served from the durable result.
func TestIdempotencyAcrossRestart(t *testing.T) {
	state := t.TempDir()
	text := crashGraph(t, 60, 106)

	d := startDaemon(t, state, nil)
	d.waitReady(t)
	code, st, err := d.submitJob(text, nil, "retry-key-1")
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	d.pollDone(t, st.ID)
	d.shutdown(t)

	d2 := startDaemon(t, state, nil)
	d2.waitReady(t)
	code, st2, err := d2.submitJob(text, nil, "retry-key-1")
	if err != nil || code != http.StatusOK {
		t.Fatalf("idempotent resubmit = %d, %v", code, err)
	}
	if st2.ID != st.ID {
		t.Fatalf("idempotent resubmit returned job %s, want original %s", st2.ID, st.ID)
	}
	if st2.State != "done" || !st2.Cached {
		t.Fatalf("idempotent resubmit state=%s cached=%v, want done cached", st2.State, st2.Cached)
	}
	d2.shutdown(t)
}
