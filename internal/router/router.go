// Package router is the sharding front of a speard cluster: a
// consistent-hash router that spreads sweep requests over N speard
// backends and keeps serving through shard failures.
//
// Requests are keyed by the same SHA-256 content hash the scheduler
// dedups on (sched.Request.Key), so one request always lands on the
// same shard — and because every shard dedups and journals by that key,
// failing over to the ring successor after a crash is always safe: the
// worst case is one re-execution that converges to the byte-identical
// report, and a shard restarting over its data dir answers from its
// completed-report store without re-executing anything.
//
// Each failure is reported once, never retried:
//
//   - every candidate shard gets one attempt, bounded by a per-attempt
//     timeout; a submission carries its request key as Idempotency-Key,
//     so net/http itself replays it when a stale keep-alive connection
//     drops it;
//   - one health view per shard decides whether routing may use it: an
//     active GET /readyz poll writes it every health interval, and a
//     proxied exchange that fails while its client is still waiting
//     marks the shard down until its next good probe, and the request
//     fails over to the next ring successor. Down shards are skipped
//     without a connection attempt, by submissions, job reads and the
//     progress and job-list fan-outs alike;
//   - when every candidate is down or draining the submission is shed
//     loudly: 503 with an aggregated Retry-After covering the soonest
//     moment any candidate might accept work — never a silent drop.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spear/internal/perf"
	"spear/internal/sched"
)

// Config tunes a Router. Zero values get sane defaults.
type Config struct {
	// Backends are the speard base URLs ("http://127.0.0.1:8791"). At
	// least one is required.
	Backends []string
	// HealthInterval paces the /readyz poll (default 1s).
	HealthInterval time.Duration
	// AttemptTimeout bounds one proxied exchange, headers included
	// (default 15s). SSE streams are exempt: they are bounded by the
	// client's own connection instead.
	AttemptTimeout time.Duration
	// Transport overrides the proxy transport (nil = default).
	Transport http.RoundTripper
	// Perf receives router counters (nil = dropped).
	Perf *perf.Registry
	// Log receives one line per failover and health change.
	Log io.Writer
}

func (c Config) healthInterval() time.Duration {
	if c.HealthInterval <= 0 {
		return time.Second
	}
	return c.HealthInterval
}

func (c Config) attemptTimeout() time.Duration {
	if c.AttemptTimeout <= 0 {
		return 15 * time.Second
	}
	return c.AttemptTimeout
}

// Router is the HTTP handler. Create with New, stop with Close.
type Router struct {
	cfg    Config
	ring   *ring
	client *http.Client
	mux    *http.ServeMux

	mu     sync.Mutex
	health map[string]sched.ShardHealth

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// ErrNoBackends is returned by New for an empty backend set.
var ErrNoBackends = fmt.Errorf("router: no backends configured")

// New builds a router over cfg.Backends and starts its health loop.
func New(cfg Config) (*Router, error) {
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	rt := &Router{
		cfg:    cfg,
		ring:   newRing(backends),
		client: &http.Client{Transport: cfg.Transport},
		health: make(map[string]sched.ShardHealth, len(backends)),
		stop:   make(chan struct{}),
	}
	rt.cfg.Backends = backends
	for _, b := range backends {
		rt.health[b] = sched.ShardHealth{Addr: b, State: sched.ShardUnknown}
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/sweeps", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleJobList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/report", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobGet)
	rt.mux.HandleFunc("GET /v1/progress", rt.handleProgress)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.Handle("GET /metrics", perf.Handler(cfg.Perf))
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Log != nil {
		fmt.Fprintf(rt.cfg.Log, format+"\n", args...)
	}
}

// ---- health -------------------------------------------------------------

func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	rt.checkAll() // prime the view before the first tick
	tick := time.NewTicker(rt.cfg.healthInterval())
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.checkAll()
		}
	}
}

func (rt *Router) checkAll() {
	var wg sync.WaitGroup
	for _, b := range rt.cfg.Backends {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			rt.checkOne(addr)
		}(b)
	}
	wg.Wait()
}

func (rt *Router) checkOne(addr string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.healthInterval())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
	if err != nil {
		return
	}
	state, detail := sched.ShardDown, ""
	if resp, err := rt.client.Do(req); err != nil {
		detail = err.Error()
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			state = sched.ShardReady
		case http.StatusServiceUnavailable:
			state = sched.ShardDraining
		default:
			detail = fmt.Sprintf("readyz: HTTP %d", resp.StatusCode)
		}
	}
	rt.setHealth(addr, state, detail)
}

// setHealth records a shard's liveness. Its two writers are the /readyz
// poll and a proxied exchange that failed on live traffic.
func (rt *Router) setHealth(addr string, state sched.ShardState, detail string) {
	rt.mu.Lock()
	prev := rt.health[addr].State
	rt.health[addr] = sched.ShardHealth{Addr: addr, State: state, Error: detail}
	rt.mu.Unlock()
	if prev != state {
		rt.cfg.Perf.Counter("router.health.transitions").Add(1)
		rt.logf("router: backend %s %s -> %s %s", addr, prev, state, detail)
	}
}

// down is the routing decision every handler makes per shard: a shard
// marked down is skipped without a connection attempt, and reason names
// it for the shed body. Unknown, ready and draining shards are tried —
// a draining shard still serves reads and refuses submissions itself.
func (rt *Router) down(addr string) (reason string, isDown bool) {
	rt.mu.Lock()
	h := rt.health[addr]
	rt.mu.Unlock()
	if h.State != sched.ShardDown {
		return "", false
	}
	return fmt.Sprintf("%s: down (%s)", addr, h.Error), true
}

// Shards returns the per-backend health view, ring-independent order.
func (rt *Router) Shards() []sched.ShardHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]sched.ShardHealth, 0, len(rt.cfg.Backends))
	for _, b := range rt.cfg.Backends {
		out = append(out, rt.health[b])
	}
	return out
}

// ---- proxying -----------------------------------------------------------

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

// attemptResult is the outcome of trying one backend.
type attemptResult struct {
	resp *http.Response // non-nil when the backend answered
	err  error          // transport failure
}

// tryBackend performs one proxied exchange; the caller owns resp.Body.
// A non-empty idemKey is sent as Idempotency-Key, which makes net/http
// replay the request when a reused keep-alive connection drops it. An
// exchange that fails while ctx is live marks the backend down; one
// abandoned by its own client says nothing about the shard.
func (rt *Router) tryBackend(ctx context.Context, addr, method, path string, body []byte, idemKey string, stream bool) attemptResult {
	actx, cancel := ctx, context.CancelFunc(func() {})
	if !stream {
		actx, cancel = context.WithTimeout(ctx, rt.cfg.attemptTimeout())
	}
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, addr+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := rt.client.Do(req)
	if err == nil && stream {
		// Streaming: the body stays live, bounded by ctx (the client's
		// own connection) rather than an attempt timeout.
		return attemptResult{resp: resp}
	}
	if err == nil {
		// Detach the response body from the attempt context: read it
		// fully now so cancel() cannot race the caller's copy.
		var data []byte
		data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	if err == nil {
		return attemptResult{resp: resp}
	}
	if ctx.Err() != nil {
		return attemptResult{err: ctx.Err()}
	}
	rt.setHealth(addr, sched.ShardDown, err.Error())
	return attemptResult{err: err}
}

// relay copies a backend response to the client, flushing as it goes so
// SSE frames pass through live.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// retryAfterOf extracts a response's Retry-After seconds (0 if absent).
func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// shed collects why each routing candidate could not serve a request
// and the soonest moment any of them might: the max over candidates'
// own estimates.
type shed struct {
	reasons    []string
	retryAfter time.Duration
}

func (sh *shed) add(reason string, retryAfter time.Duration) {
	sh.reasons = append(sh.reasons, reason)
	sh.retryAfter = max(sh.retryAfter, retryAfter)
}

// shedAll answers a request for which no candidate could serve:
// aggregated Retry-After (never under 1s), per-backend detail in the
// body. Loud by design.
func (rt *Router) shedAll(w http.ResponseWriter, sh shed) {
	rt.cfg.Perf.Counter("router.shed").Add(1)
	retryAfter := max(sh.retryAfter, time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error:        "no backend available: " + strings.Join(sh.reasons, "; "),
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// handleSubmit routes a sweep submission to its ring owner, failing
// over to successors on transport failure or a draining shard.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading request body: " + err.Error()})
		return
	}
	var req sched.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request body: " + err.Error()})
		return
	}
	key := req.Key()
	rt.cfg.Perf.Counter("router.submit").Add(1)

	var sh shed
	for i, addr := range rt.ring.Successors(key) {
		if i > 0 {
			rt.cfg.Perf.Counter("router.failover").Add(1)
			rt.logf("router: job %s failing over to %s", short(key), addr)
		}
		if reason, down := rt.down(addr); down {
			sh.add(reason, rt.cfg.healthInterval())
			continue
		}
		res := rt.tryBackend(r.Context(), addr, http.MethodPost, "/v1/sweeps", body, key, false)
		if res.err != nil {
			// The shard is down now; its next probe, one health
			// interval away, is the soonest it can be tried again.
			sh.add(fmt.Sprintf("%s: %v", addr, res.err), rt.cfg.healthInterval())
			continue
		}
		if res.resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or closed: the successor recomputes the sweep;
			// per-shard dedup + journals make that safe.
			sh.add(fmt.Sprintf("%s: draining", addr), retryAfterOf(res.resp))
			res.resp.Body.Close()
			continue
		}
		relay(w, res.resp)
		return
	}
	rt.shedAll(w, sh)
}

// handleJobGet routes job reads by the job ID (= request key), passing
// the query string through (e.g. the events stream's interval_ms). A shard
// that answers 404 is not authoritative after a failover — the job may
// live on the ring successor — so 404s continue down the candidate
// list and only surface when every live candidate agrees.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	stream := strings.HasSuffix(r.URL.Path, "/events")
	var sh shed
	var notFound *http.Response
	for _, addr := range rt.ring.Successors(key) {
		if reason, down := rt.down(addr); down {
			sh.add(reason, rt.cfg.healthInterval())
			continue
		}
		res := rt.tryBackend(r.Context(), addr, http.MethodGet, r.URL.RequestURI(), nil, "", stream)
		if res.err != nil {
			sh.add(fmt.Sprintf("%s: %v", addr, res.err), 0)
			continue
		}
		if res.resp.StatusCode == http.StatusNotFound {
			if notFound != nil {
				notFound.Body.Close()
			}
			notFound = res.resp
			continue
		}
		if notFound != nil {
			notFound.Body.Close()
		}
		relay(w, res.resp)
		return
	}
	if notFound != nil {
		relay(w, notFound)
		return
	}
	rt.shedAll(w, sh)
}

// handleJobList merges every reachable shard's job list. Down shards
// are skipped.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Jobs []sched.Snapshot `json:"jobs"`
	}
	var mu sync.Mutex
	var all []sched.Snapshot
	var wg sync.WaitGroup
	for _, addr := range rt.cfg.Backends {
		if _, down := rt.down(addr); down {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			res := rt.tryBackend(r.Context(), addr, http.MethodGet, "/v1/jobs", nil, "", false)
			if res.err != nil || res.resp.StatusCode != http.StatusOK {
				if res.resp != nil {
					res.resp.Body.Close()
				}
				return
			}
			defer res.resp.Body.Close()
			var lr listResp
			if json.NewDecoder(res.resp.Body).Decode(&lr) == nil {
				mu.Lock()
				all = append(all, lr.Jobs...)
				mu.Unlock()
			}
		}(addr)
	}
	wg.Wait()
	sort.Slice(all, func(i, k int) bool {
		if !all[i].Created.Equal(all[k].Created) {
			return all[i].Created.After(all[k].Created)
		}
		return all[i].ID < all[k].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"jobs": all})
}

// Progress fans /v1/progress out to every shard not marked down and
// merges the result. Shards carries the health banner; a shard that
// fails to answer carries the reason in its entry.
func (rt *Router) Progress(ctx context.Context) sched.Progress {
	var mu sync.Mutex
	var p sched.Progress
	var wg sync.WaitGroup
	shardErr := make(map[string]string, len(rt.cfg.Backends))
	fail := func(addr, detail string) {
		mu.Lock()
		shardErr[addr] = detail
		mu.Unlock()
	}
	for _, addr := range rt.cfg.Backends {
		if _, down := rt.down(addr); down {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			res := rt.tryBackend(ctx, addr, http.MethodGet, "/v1/progress", nil, "", false)
			if res.err != nil {
				fail(addr, res.err.Error())
				return
			}
			defer res.resp.Body.Close()
			if res.resp.StatusCode != http.StatusOK {
				fail(addr, fmt.Sprintf("progress: HTTP %d", res.resp.StatusCode))
				return
			}
			var q sched.Progress
			if err := json.NewDecoder(res.resp.Body).Decode(&q); err != nil {
				fail(addr, "progress: "+err.Error())
				return
			}
			mu.Lock()
			p.Merge(q)
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	p.Shards = rt.Shards()
	for i := range p.Shards {
		if e, ok := shardErr[p.Shards[i].Addr]; ok && p.Shards[i].Error == "" {
			p.Shards[i].Error = e
		}
	}
	return p
}

func (rt *Router) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Progress(r.Context()))
}

// handleReady answers 200 while at least one shard is ready — the
// cluster can still accept work — and 503 otherwise.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, s := range rt.Shards() {
		if s.State == sched.ShardReady {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready backends"})
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
