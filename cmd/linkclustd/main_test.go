package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"linkclust/internal/testkit"
)

// syncBuffer lets the test read the daemon's stdout while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// smokeGraph is a small fixed graph in the text format.
const smokeGraph = "vertices 5\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\nedge 2 3 0.5\nedge 3 4 1\n"

// TestDaemonSmoke drives the full daemon lifecycle in-process: boot on an
// ephemeral port, submit a job, poll it done, resubmit to hit the result
// cache, then deliver the shutdown signal (context cancellation — exactly
// what SIGTERM triggers through signal.NotifyContext) and require a clean
// drain with no leaked goroutines.
func TestDaemonSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-concurrency", "2"}, &out)
	}()

	// Wait for the listener line and extract the bound address.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; output: %q", out.String())
		}
		time.Sleep(time.Millisecond)
	}
	url := "http://" + addr

	if resp, err := http.Get(url + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// Cold submission.
	type status struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	post := func() (int, status) {
		body, _ := json.Marshal(map[string]any{"graph": smokeGraph})
		resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st status
		json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}
	code, st := post()
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s", url, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
	}

	// Cached resubmission: immediate 200 and no phases in its run report.
	code, st2 := post()
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit = %d cached=%v, want 200 cached", code, st2.Cached)
	}
	resp, err := http.Get(fmt.Sprintf("%s/runreport/%s", url, st2.ID))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Phases []struct {
			Path string `json:"path"`
		} `json:"phases"`
	}
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if len(rep.Phases) != 0 {
		t.Fatalf("cached run report has phases %v, want none", rep.Phases)
	}

	// Shutdown signal → clean drain, run() returns nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after shutdown signal")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("missing drain confirmation in output: %q", out.String())
	}

	// No goroutine of the daemon survives the drain. (The test's own HTTP
	// client parks keep-alive goroutines; close them so only daemon leaks
	// would show.)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	testkit.WaitGoroutines(t, base)
}
