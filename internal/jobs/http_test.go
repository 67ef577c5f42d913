package jobs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"linkclust"
)

func startServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func submit(t *testing.T, srv *httptest.Server, req SubmitRequest) (int, Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func pollDone(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		if code := getJSON(t, srv.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	_, srv := startServer(t, Config{Concurrency: 2})
	text := string(graphText(t, 50, 31))

	code, st := submit(t, srv, SubmitRequest{Graph: text, Options: Options{Workers: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("cold submit = %d, want 202", code)
	}
	st = pollDone(t, srv, st.ID)
	if st.State != StateDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}

	// Result endpoint.
	var res Result
	if code := getJSON(t, srv.URL+"/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if res.MergesSHA256 != st.Result.MergesSHA256 {
		t.Fatal("result endpoint disagrees with status")
	}

	// Merge stream is the LCMG binary document.
	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/merges")
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 4)
	if _, err := resp.Body.Read(blob); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if string(blob) != "LCMG" {
		t.Fatalf("merges magic = %q, want LCMG", blob)
	}

	// Run report with the similarity phase present (cold run).
	var rep linkclust.RunReport
	if code := getJSON(t, srv.URL+"/runreport/"+st.ID, &rep); code != http.StatusOK {
		t.Fatalf("GET runreport = %d", code)
	}
	if rep.Schema == "" || !hasPhase(&rep, "similarity") {
		t.Fatalf("cold run report lacks schema or similarity phase: %+v", rep.Phases)
	}

	// Cached resubmit: 200, no phases in its report.
	code, st2 := submit(t, srv, SubmitRequest{Graph: text, Options: Options{}})
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit = %d cached=%v, want 200 cached", code, st2.Cached)
	}
	var rep2 linkclust.RunReport
	if code := getJSON(t, srv.URL+"/runreport/"+st2.ID, &rep2); code != http.StatusOK {
		t.Fatalf("GET cached runreport = %d", code)
	}
	if len(rep2.Phases) != 0 {
		t.Fatalf("cached job report has phases %v", rep2.Phases)
	}

	// Metrics reflect the hit.
	var mt Metrics
	if code := getJSON(t, srv.URL+"/metrics", &mt); code != http.StatusOK {
		t.Fatalf("GET metrics = %d", code)
	}
	if mt.Submitted != 2 || mt.CacheHitResult != 1 {
		t.Fatalf("metrics submitted=%d hits=%d, want 2/1", mt.Submitted, mt.CacheHitResult)
	}

	// A byte-identical resubmit of the first body is answered from the
	// body's hash: a new cached job, exactly like a decoded cached submit.
	code, st3 := submit(t, srv, SubmitRequest{Graph: text, Options: Options{Workers: 2}})
	if code != http.StatusOK || !st3.Cached || st3.ID == st.ID || st3.Options.Workers != 2 {
		t.Fatalf("identical resubmit = %d %+v, want 200, a new cached job with workers 2", code, st3)
	}
	var rep3 linkclust.RunReport
	if code := getJSON(t, srv.URL+"/runreport/"+st3.ID, &rep3); code != http.StatusOK || len(rep3.Phases) != 0 {
		t.Fatalf("identical resubmit report = %d with phases %v", code, rep3.Phases)
	}
	// A body that carries an idempotency key keeps the key's meaning: its
	// identical resubmit answers with the original job, not a new one.
	keyed := SubmitRequest{Graph: text, IdempotencyKey: "k1"}
	_, k1 := submit(t, srv, keyed)
	if code, k2 := submit(t, srv, keyed); code != http.StatusOK || k2.ID != k1.ID {
		t.Fatalf("keyed resubmit = %d job %s, want job %s", code, k2.ID, k1.ID)
	}
	if code := getJSON(t, srv.URL+"/metrics", &mt); code != http.StatusOK {
		t.Fatalf("GET metrics = %d", code)
	}
	if mt.Submitted != 4 || mt.CacheHitResult != 3 {
		t.Fatalf("metrics submitted=%d hits=%d, want 4/3", mt.Submitted, mt.CacheHitResult)
	}
}

func TestHTTPErrors(t *testing.T) {
	m, srv := startServer(t, Config{})

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{", http.StatusBadRequest},
		{"empty graph", `{"graph":""}`, http.StatusBadRequest},
		{"bad graph", `{"graph":"nonsense"}`, http.StatusBadRequest},
		{"bad algorithm", `{"graph":"vertices 0\n","options":{"algorithm":"fancy"}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if code := getJSON(t, srv.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/runreport/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown report = %d, want 404", code)
	}

	// Artifact of an unfinished job: 409. Submit something slow enough to
	// still be queued/running when we ask.
	code, st := submit(t, srv, SubmitRequest{Graph: string(graphText(t, 150, 32))})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if code := getJSON(t, srv.URL+"/jobs/"+st.ID+"/result", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Errorf("unfinished result = %d, want 409 (or 200 if it finished)", code)
	}
	pollDone(t, srv, st.ID)

	// Draining: readiness flips to 503 (liveness stays 200 — the process is
	// still up, just not taking work) and submissions are refused.
	m.Drain()
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", code)
	}
	code, _ = submit(t, srv, SubmitRequest{Graph: string(graphText(t, 10, 33))})
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining submit = %d, want 503", code)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := startServer(t, Config{})
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
}

// TestHTTPQueueBackpressure fills the depth-1 queue behind a running job
// and requires a 429. The first coarse job blocks at its first chunk
// boundary (fault.CancelWindow) until the 429 has been seen, so the queue
// cannot drain first and turn the later submits into result-cache hits.
func TestHTTPQueueBackpressure(t *testing.T) {
	release := holdFirstWindow(t)
	_, srv := startServer(t, Config{Concurrency: 1, QueueDepth: 1})
	text := string(graphText(t, 150, 34))
	saw429 := false
	ids := []string{}
	for i := 0; i < 12; i++ {
		code, st := submit(t, srv, SubmitRequest{Graph: text, Options: Options{Algorithm: AlgoCoarse}})
		switch code {
		case http.StatusAccepted:
			ids = append(ids, st.ID)
		case http.StatusOK:
			// Result-cache hit once the first run finishes — also fine.
		case http.StatusTooManyRequests:
			saw429 = true
			release()
		default:
			t.Fatalf("submit %d = %d", i, code)
		}
	}
	if !saw429 {
		t.Fatal("queue never filled behind the blocked job")
	}
	for _, id := range ids {
		pollDone(t, srv, id)
	}
}

// TestHTTPSubmitBodyLength: the body is read whole whatever Content-Length
// says — right, unknown, short, long or past MaxGraphBytes — and a body
// past MaxGraphBytes is still refused with 413.
func TestHTTPSubmitBodyLength(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	h := NewHandler(m)
	body, err := json.Marshal(SubmitRequest{Graph: string(graphText(t, 20, 5))})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(body))
	for _, tc := range []struct {
		name   string
		length int64
	}{
		{"exact", n},
		{"unknown", -1},
		{"short", n / 3},
		{"long", 2 * n},
		{"past the cap", MaxGraphBytes + 1},
	} {
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		req.ContentLength = tc.length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Errorf("%s: code = %d (%s), want 200 or 202", tc.name, rec.Code, rec.Body)
		}
	}

	// A body one byte past the cap, streamed so the test holds no copy.
	big := io.MultiReader(strings.NewReader(`{"graph":"`), io.LimitReader(zeros{}, MaxGraphBytes))
	req := httptest.NewRequest(http.MethodPost, "/jobs", big)
	req.ContentLength = MaxGraphBytes + int64(len(`{"graph":"`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code = %d, want 413", rec.Code)
	}
}

// TestReadBodyTrustsNoClaimedLength: a request that claims MaxGraphBytes
// but sends 1 KiB reserves no more than bodyPrealloc, so headers alone
// cannot make the daemon hold MaxGraphBytes per connection.
func TestReadBodyTrustsNoClaimedLength(t *testing.T) {
	sent := bytes.Repeat([]byte{'x'}, 1<<10)
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(sent))
	req.ContentLength = MaxGraphBytes
	body, err := readBody(httptest.NewRecorder(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, sent) {
		t.Fatalf("read %d bytes, want the %d sent", len(body), len(sent))
	}
	// The allocator rounds bodyPrealloc+MinRead up to its size class.
	if c := cap(body); c > 2*bodyPrealloc {
		t.Errorf("buffer cap = %d for a %d-byte body, want at most %d", c, len(sent), 2*bodyPrealloc)
	}
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
