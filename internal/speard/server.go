// Package speard is the HTTP face of the sweep scheduler: a thin,
// transport-only layer that translates requests, typed admission errors,
// and job lifecycles into status codes, Retry-After headers, and SSE
// streams. All policy — dedup, queuing, deadlines, drain — lives in
// internal/sched; all execution lives in internal/harness. The server
// adds nothing to either, which is what keeps a sweep POSTed here
// byte-identical to one typed at a shell.
//
// Endpoints:
//
//	POST /v1/sweeps             submit (202 admitted, 200 coalesced,
//	                            400 bad request, 429 shed + Retry-After,
//	                            503 draining + Retry-After)
//	GET  /v1/jobs               list job snapshots
//	GET  /v1/jobs/{id}          one job snapshot (404 unknown)
//	GET  /v1/jobs/{id}/report   the finished report, byte-identical to
//	                            spearbench -json (409 while live)
//	GET  /v1/jobs/{id}/events   SSE job lifecycle + journal progress
//	GET  /v1/progress           scheduler-wide progress aggregate
//	GET  /healthz               process liveness (always 200)
//	GET  /readyz                admission readiness (503 while draining)
//	GET  /metrics               perf registry snapshot
//	GET  /debug/pprof/          live profiling
package speard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"spear/internal/perf"
	"spear/internal/sched"
)

// Server serves the scheduler over HTTP.
type Server struct {
	Sched *sched.Scheduler
	// Perf is the registry behind /metrics (nil serves an empty snapshot).
	Perf *perf.Registry
	// PollInterval paces the SSE streams' default cadence (0 = 1s).
	PollInterval time.Duration
}

// New returns a server over s.
func New(s *sched.Scheduler, reg *perf.Registry) *Server {
	return &Server{Sched: s, Perf: reg}
}

func (s *Server) interval() time.Duration {
	if s.PollInterval <= 0 {
		return time.Second
	}
	return s.PollInterval
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/progress", s.handleProgress)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Sched.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.Handle("GET /metrics", perf.Handler(s.Perf))
	perf.MountPprof(mux)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeAdmissionError maps a typed scheduler error to its HTTP shape.
// Shed submissions carry a Retry-After header (whole seconds, rounded
// up — the header has no sub-second resolution) plus the precise
// estimate in the body.
func writeAdmissionError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var qf *sched.QueueFullError
	var cl *sched.ClientLimitError
	var dr *sched.DrainingError
	switch {
	case errors.Is(err, sched.ErrBadRequest):
		status = http.StatusBadRequest
	case errors.As(err, &qf), errors.As(err, &cl):
		status = http.StatusTooManyRequests
	case errors.As(err, &dr), errors.Is(err, sched.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	body := errorBody{Error: err.Error()}
	if ra := sched.RetryAfterOf(err); ra > 0 {
		body.RetryAfterMS = ra.Milliseconds()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ra.Seconds()))))
	}
	writeJSON(w, status, body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req sched.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request body: " + err.Error()})
		return
	}
	if req.Client == "" {
		// Per-client caps need an identity; fall back to the peer host.
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			req.Client = host
		} else {
			req.Client = r.RemoteAddr
		}
	}
	job, coalesced, err := s.Sched.Submit(req)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, status, job.Snapshot())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Sched.Jobs()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*sched.Job, bool) {
	job, ok := s.Sched.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return nil, false
	}
	return job, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Snapshot())
	}
}

// handleReport streams the finished report. The bytes come straight
// from harness.Report.WriteJSON — the same writer spearbench -json
// uses — so a report fetched here is byte-identical to one written at
// a shell, which is the property the torture tests pin. A job whose
// report came from the completed-report store serves the stored bytes
// verbatim and says so with X-Spear-Cache: hit; a freshly executed job
// answers X-Spear-Cache: miss.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	snap := job.Snapshot()
	rep, _, err := job.Result()
	switch {
	case !snap.State.Terminal():
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s; no report yet", snap.ID, snap.State)})
	case rep == nil:
		msg := fmt.Sprintf("job %s ended %s without a report", snap.ID, snap.State)
		if err != nil {
			msg += ": " + err.Error()
		}
		writeJSON(w, http.StatusConflict, errorBody{Error: msg})
	default:
		w.Header().Set("Content-Type", "application/json")
		cache := "miss"
		if snap.CacheHit {
			cache = "hit"
		}
		w.Header().Set("X-Spear-Cache", cache)
		if raw := job.RawReport(); raw != nil {
			_, _ = w.Write(raw)
			return
		}
		_ = rep.WriteJSON(w)
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sched.Progress())
}

// sseInterval resolves the stream cadence from ?interval_ms, clamped to
// [100ms, 1min].
func (s *Server) sseInterval(r *http.Request) time.Duration {
	iv := s.interval()
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		iv = time.Duration(ms) * time.Millisecond
	}
	if iv < 100*time.Millisecond {
		iv = 100 * time.Millisecond
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// sse prepares an event-stream response, returning the flusher (nil if
// the connection cannot stream).
func sse(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "connection does not support streaming"})
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return fl
}

func sseEvent(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// handleJobEvents streams a job's snapshots until it reaches a terminal
// state (final event: "done"). The progress a client sees here is read
// from the job's journal with the same loader the resume path uses, so
// the stream reports exactly the state a crash at that instant would
// preserve.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	fl := sse(w)
	if fl == nil {
		return
	}
	tick := time.NewTicker(s.sseInterval(r))
	defer tick.Stop()
	for {
		snap := job.Snapshot()
		event := "state"
		if snap.State.Terminal() {
			event = "done"
		}
		if err := sseEvent(w, fl, event, snap); err != nil || event == "done" {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}
