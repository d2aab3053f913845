package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Handler returns the HTTP API:
//
//	POST   /v1/runs              submit a RunRequest; waits for completion
//	                             unless async, then 202 + job id
//	GET    /v1/runs/{id}         job status (with result once done)
//	GET    /v1/runs/{id}/events  live SSE stream: phase transitions,
//	                             epoch-progress heartbeats, terminal
//	                             result/error event
//	DELETE /v1/runs/{id}         cancel a queued or running job
//	POST   /v1/cache             which of {"keys":[...]} the result cache
//	                             holds: {"keys":[held...]}; never triggers
//	                             work (the sweep coordinator routes on it)
//	GET    /v1/healthz           {"status":"ok"} or 503 {"status":"draining"}
//	GET    /metrics              Prometheus text exposition
//
// Every response carries an X-Request-ID header (echoed from the
// request when present) that also tags the Debug-level access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/cache", s.handleCacheQuery)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	return s.withRequestID(mux)
}

// reqSeq mints fallback request ids (shared across servers; the ids
// only need to be unique, not dense).
var reqSeq atomic.Int64

// withRequestID assigns each request an id, echoes it on the response,
// and emits a Debug access log with method, path, status, and duration.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("q-%06d", reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Debug("http request", "reqId", id, "method", r.Method,
			"path", r.URL.Path, "status", sw.status,
			"durMs", float64(time.Since(t0))/float64(time.Millisecond))
	})
}

// statusWriter records the response status for the access log while
// passing http.Flusher through — the SSE handler needs to flush.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// decodeBody decodes a JSON request body into v, rejecting unknown
// fields (400) and bodies over MaxBodyBytes (413). It reports whether
// the handler should go on; on false the error response is written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		writeError(w, http.StatusBadRequest, "svc: request JSON: "+err.Error())
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	jb, deduped, apiErr := s.Submit(&req)
	if apiErr != nil {
		writeError(w, apiErr.code, apiErr.msg)
		return
	}
	if req.Async {
		writeStatus(w, jb.status(deduped))
		return
	}
	writeStatus(w, s.Wait(r.Context(), jb, deduped))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "svc: unknown job "+r.PathValue("id"))
		return
	}
	writeStatus(w, jb.status(false))
}

// CacheQuery is the POST /v1/cache request and response: result keys
// (RequestKey values) in, the subset this server's result cache holds
// out.
type CacheQuery struct {
	Keys []string `json:"keys"`
}

// handleCacheQuery answers which of the given keys the result cache
// holds. It reads through Peek, so a query moves neither the tier's
// hit/miss counters nor any job counter: only submissions do.
func (s *Server) handleCacheQuery(w http.ResponseWriter, r *http.Request) {
	var q CacheQuery
	if !s.decodeBody(w, r, &q) {
		return
	}
	for _, k := range q.Keys {
		if !validCacheKey(k) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("svc: cache key %.80q is not 64 lowercase hex characters", k))
			return
		}
	}
	held := CacheQuery{Keys: []string{}}
	for _, k := range q.Keys {
		if _, ok := s.resultCache.Peek(k); ok {
			held.Keys = append(held.Keys, k)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(held)
}

// validCacheKey reports whether key looks like a hex sha256 — the only
// shape resultKey ever takes.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleEvents streams a job's event hub as Server-Sent Events. The
// replayable past (phases, latest progress, terminal event) is written
// first, then live events until the job finishes or the client goes
// away. Event ids are the per-job sequence numbers, so a reconnecting
// client can detect gaps.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "svc: unknown job "+r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "svc: response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := jb.hub.subscribe()
	defer cancel()
	for _, e := range replay {
		writeSSE(w, e)
	}
	fl.Flush()
	for {
		select {
		case e, open := <-ch:
			if !open {
				return // terminal event delivered (or subscriber evicted)
			}
			writeSSE(w, e)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event frame. Payloads are compact JSON (no
// newlines), so a single data: line suffices.
func writeSSE(w http.ResponseWriter, e Event) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, e.Data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "svc: unknown job "+r.PathValue("id"))
		return
	}
	s.log.Info("job cancel requested", "job", jb.id)
	writeStatus(w, jb.status(false))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handlePrometheus serves the registry in Prometheus text format 0.0.4.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	s.reg.WritePrometheus(w)
}

// writeStatus renders a job status: 200 once terminal, 202 while the
// job is still queued or running (async submissions and polls).
func writeStatus(w http.ResponseWriter, st JobStatus) {
	w.Header().Set("Content-Type", "application/json")
	switch st.State {
	case StateDone, StateFailed, StateCancelled:
		w.WriteHeader(http.StatusOK)
	default:
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(st)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
