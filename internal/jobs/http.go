package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// MaxGraphBytes bounds the request body of a submission; graphs past it are
// rejected with 413 before parsing.
const MaxGraphBytes = 64 << 20

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Graph is the graph in the library's text format (see WriteGraph).
	Graph string `json:"graph"`
	// Options configures the run; the zero value is a serial fine-grained
	// sweep with the daemon's default timeout and budget.
	Options Options `json:"options"`
	// IdempotencyKey deduplicates retried submissions: a key seen before
	// returns the original job's current status instead of creating a new
	// job. The Idempotency-Key request header takes precedence. Keys
	// survive daemon restarts when persistence is enabled.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// bodyPrealloc caps the buffer readBody reserves from a request's
// Content-Length before any body byte has arrived.
const bodyPrealloc = 1 << 20

// readBody reads a submission's body, at most MaxGraphBytes of it. The
// buffer starts at the body's Content-Length, but at most bodyPrealloc: a
// client can claim a length it never sends, so a longer body grows the
// buffer only as its bytes arrive, and MaxBytesReader stops any body at the
// cap. A missing or short length only costs growth.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	// ReadFrom wants MinRead bytes free before each read, EOF's included.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyPrealloc)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxGraphBytes))
	return buf.Bytes(), err
}

// NewHandler returns the daemon's HTTP API over m:
//
//	POST /jobs              submit a job; 200 + final status on a result-cache
//	                        hit, 202 + queued status otherwise
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/result  result summary of a finished job
//	GET  /jobs/{id}/merges  serialized merge stream (LCMG binary)
//	GET  /runreport/{id}    the job's obs run report (partial for
//	                        canceled/failed jobs, error-tagged)
//	GET  /metrics           manager counters and gauges
//	GET  /healthz           liveness: always 200 while the process serves
//	GET  /readyz            readiness: 503 + Retry-After until startup
//	                        recovery (journal replay) finishes, and again
//	                        once draining; 200 between
//
// Error mapping: 400 malformed request/graph, 404 unknown job, 409 artifact
// requested before the job finished, 413 oversized body, 429 queue full or
// memory-budget rejection, 503 recovering or draining. 429 and 503 bodies
// carry "retryable": true and a Retry-After header; 4xx failures are
// terminal — retrying the identical request cannot succeed.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("jobs: graph exceeds %d bytes", int64(MaxGraphBytes)))
				return
			}
			httpError(w, http.StatusBadRequest, err)
			return
		}
		// A body submitted before without an idempotency key is answered
		// from its hash, before any decoding: a cached resubmit then costs
		// one SHA-256 of the body instead of a JSON decode of the graph.
		// A header key keeps the decoded path and its idempotency lookup.
		bodyKey := sha256.Sum256(body)
		if r.Header.Get("Idempotency-Key") == "" {
			if st, ok, err := m.submitRepeat(bodyKey); ok {
				writeSubmit(w, st, err)
				return
			}
		}
		var req SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("jobs: malformed submit body: %w", err))
			return
		}
		if req.Graph == "" {
			httpError(w, http.StatusBadRequest, errors.New("jobs: empty graph"))
			return
		}
		idemKey := r.Header.Get("Idempotency-Key")
		if idemKey == "" {
			idemKey = req.IdempotencyKey
		}
		var key *[sha256.Size]byte
		if req.IdempotencyKey == "" {
			key = &bodyKey
		}
		st, err := m.submit([]byte(req.Graph), req.Options, idemKey, key)
		writeSubmit(w, st, err)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Status(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		if st.State != StateDone {
			httpError(w, http.StatusConflict, fmt.Errorf("%w: state %s", ErrNotFinished, st.State))
			return
		}
		writeJSON(w, http.StatusOK, st.Result)
	})

	mux.HandleFunc("GET /jobs/{id}/merges", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.Merges(r.PathValue("id"))
		if err != nil {
			code := http.StatusNotFound
			if errors.Is(err, ErrNotFinished) {
				code = http.StatusConflict
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /runreport/{id}", func(w http.ResponseWriter, r *http.Request) {
		rep, err := m.Report(r.PathValue("id"))
		if err != nil {
			code := http.StatusNotFound
			if errors.Is(err, ErrNotFinished) {
				code = http.StatusConflict
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		rep.WriteJSON(w)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Metrics())
	})

	// Liveness: the process is up and serving HTTP. Stays 200 through
	// recovery and drain — a draining daemon is alive, it is just not ready
	// for new work; restarting it on a failed liveness probe would turn
	// every graceful drain into a crash.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})

	// Readiness: take traffic only between "journal replay finished" and
	// "drain began". Not-ready responses carry Retry-After so a submitting
	// client (or a rolling deploy) knows to come back, not give up.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case m.Draining():
			httpError(w, http.StatusServiceUnavailable, ErrDraining)
		case !m.Ready():
			httpError(w, http.StatusServiceUnavailable, ErrRecovering)
		default:
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ready\n")
		}
	})

	return mux
}

// writeSubmit answers a submission: 200 with the final status on a
// result-cache hit, 202 with the queued status otherwise, or the error.
func writeSubmit(w http.ResponseWriter, st Status, err error) {
	if err != nil {
		httpError(w, submitStatusCode(err), err)
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// submitStatusCode maps Submit errors to HTTP codes: backpressure (queue
// full, memory ceiling) is 429 so well-behaved clients retry with backoff,
// recovery and drain are 503, anything else is a 400 (malformed graph or
// options).
func submitStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrRecovering):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the JSON error envelope. Retryable marks transient failures
// (backpressure, recovery, drain) a client should retry after the
// Retry-After delay; its absence marks terminal errors where retrying the
// identical request cannot succeed.
type errorBody struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	retryable := code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error(), Retryable: retryable})
}
