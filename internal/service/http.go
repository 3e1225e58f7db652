package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"macroop/internal/simerr"
)

// errorBody is the JSON error envelope. Simulation failures carry their
// repro fingerprint: a 500 from a deadlocked or divergent cell names the
// exact failure identity a local `mopsim -shrink` repro would fold into.
type errorBody struct {
	Error            string `json:"error"`
	Kind             string `json:"kind,omitempty"`
	ReproFingerprint string `json:"repro_fingerprint,omitempty"`
}

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the simulation was cancelled rather than
// failed — simerr.KindCancelled.HTTPStatus().
const StatusClientClosedRequest = 499

// Handler returns the service's HTTP API:
//
//	POST /v1/simulate       one cell, synchronous
//	POST /v1/matrix         batched sweep (async; wait/stream modes)
//	POST /v1/gap            scheduler-vs-optimum gap report, synchronous
//	GET  /v1/jobs           job summaries, newest first
//	GET  /v1/jobs/{id}      one job's status and finished cells
//	GET  /v1/jobs/{id}/stream  NDJSON replay+live stream of cell results
//	GET  /metrics           Prometheus text exposition
//	GET  /healthz           200 ok / 503 draining
//	GET  /debug/pprof/...   live profiling
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	mux.HandleFunc("POST /v1/gap", s.handleGap)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WriteJSON writes an indented JSON response body. Exported for the
// cluster router, which serves some service endpoints itself.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) { WriteJSON(w, status, v) }

// WriteError maps an error onto the stable status contract: admission
// failures are 503 with a Retry-After hint (during a drain the hint is
// the expected drain time, not the static queue hint), typed simulation
// failures take their kind's status (cancelled → 499, everything else →
// 500) with the repro fingerprint in the body, and anything untyped from
// request validation is a 400. Exported for the cluster router.
func (s *Service) WriteError(w http.ResponseWriter, err error) { s.writeError(w, err) }

func (s *Service) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrInterrupted):
		w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter(err)))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		if kind, ok := simerr.KindOf(err); ok {
			writeJSON(w, kind.HTTPStatus(), errorBody{
				Error:            err.Error(),
				Kind:             kind.String(),
				ReproFingerprint: simerr.FingerprintOf(err),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Benchmark == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing benchmark (one of: " + benchList() + ")"})
		return
	}
	cr, err := s.Simulate(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cr)
}

// matrixWire is MatrixRequest plus the response-mode switches.
type matrixWire struct {
	MatrixRequest
	// Wait blocks the response until the whole batch finishes.
	Wait bool `json:"wait,omitempty"`
	// Stream responds with NDJSON: one line per finished cell as it
	// completes, then a terminal job-status line.
	Stream bool `json:"stream,omitempty"`
}

func (s *Service) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req matrixWire
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	j, err := s.SubmitMatrix(req.MatrixRequest)
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch {
	case req.Stream:
		s.streamJob(w, r, j)
	case req.Wait:
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.Status(true))
		case <-r.Context().Done():
			// The batch keeps running server-side; the client can rejoin
			// via GET /v1/jobs/{id}.
		}
	default:
		writeJSON(w, http.StatusAccepted, j.Status(false))
	}
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.JobStatuses())
}

func (s *Service) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown job %q", id)})
		return nil, false
	}
	return j, true
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status(true))
	}
}

func (s *Service) handleJobStream(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		s.streamJob(w, r, j)
	}
}

// streamJob writes the job's cell results as NDJSON, replaying finished
// cells first and then following the live stream until the job reaches a
// terminal state; the last line is the job's status (without the result
// bodies — they were the stream).
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sub := j.subscribe()
	for {
		select {
		case cr := <-sub:
			emit(cr)
		case <-j.Done():
			for {
				select {
				case cr := <-sub:
					emit(cr)
				default:
					emit(j.Status(false))
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.MetricsText()))
}

// retryAfterSeconds renders a Retry-After header value, rounding up and
// never below one second.
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// handleHealthz reports drain, queue, cache, and (when clustered) ring
// and ownership state as JSON. A draining server answers 503 with a
// Retry-After reflecting the expected drain time, so a client told to
// come back learns when the restart should have happened.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Draining {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfter(ErrDraining)))
	}
	writeJSON(w, status, h)
}
