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
// Failure handling is layered:
//
//   - per-attempt timeouts bound how long one shard can hang;
//   - connection failures retry with exponential backoff + jitter,
//     then fail over to the next ring successor;
//   - a per-backend circuit breaker opens after consecutive transport
//     failures so a dead shard is skipped without burning its timeout;
//   - active health checks (GET /readyz) keep a live ready/draining/
//     down view for routing and for the cluster progress banner;
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
	"math/rand"
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
	// Retries is how many times a connection failure to one backend is
	// retried (with backoff) before failing over (default 2).
	Retries int
	// BackoffBase/BackoffMax shape the exponential retry backoff
	// (defaults 50ms / 2s). Each attempt sleeps base<<attempt, capped,
	// with ±50% jitter so a restarting cluster is not hit in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive transport failures open a backend's
	// circuit for BreakerCooldown (defaults 3 / 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the proxy transport (nil = default).
	Transport http.RoundTripper
	// Rand supplies jitter in [0,1) (nil = math/rand; tests inject a
	// deterministic source).
	Rand func() float64
	// Perf receives router counters (nil = dropped).
	Perf *perf.Registry
	// Log receives one line per failover, breaker transition, and
	// health change.
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

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 50 * time.Millisecond
	}
	return c.BackoffBase
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 2 * time.Second
	}
	return c.BackoffMax
}

// BackendState is one shard's health as the router sees it.
type BackendState string

const (
	BackendReady    BackendState = "ready"
	BackendDraining BackendState = "draining"
	BackendDown     BackendState = "down"
	BackendUnknown  BackendState = "unknown" // not probed yet
)

// ShardHealth is the per-shard entry of the cluster progress view.
type ShardHealth struct {
	Addr  string       `json:"addr"`
	State BackendState `json:"state"`
	// BreakerOpen reports the circuit breaker tripped on transport
	// failures — set even when the last health probe succeeded.
	BreakerOpen bool   `json:"breaker_open,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ClusterProgress is the merged /v1/progress of every reachable shard.
// The embedded sched.Progress keeps the top-level JSON shape identical
// to a single speard's, so spearstat renders a cluster the same way it
// renders one server; Shards adds the per-shard health banner.
type ClusterProgress struct {
	sched.Progress
	Shards []ShardHealth `json:"shards"`
}

// Router is the HTTP handler. Create with New, stop with Close.
type Router struct {
	cfg    Config
	ring   *ring
	client *http.Client
	mux    *http.ServeMux
	randMu sync.Mutex
	randF  func() float64

	mu       sync.Mutex
	health   map[string]BackendState
	healthEr map[string]string
	breakers map[string]*breaker

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
		cfg:      cfg,
		ring:     newRing(backends),
		client:   &http.Client{Transport: cfg.Transport},
		health:   make(map[string]BackendState, len(backends)),
		healthEr: make(map[string]string, len(backends)),
		breakers: make(map[string]*breaker, len(backends)),
		stop:     make(chan struct{}),
		randF:    cfg.Rand,
	}
	if rt.randF == nil {
		rt.randF = rand.Float64
	}
	rt.cfg.Backends = backends
	for _, b := range backends {
		rt.health[b] = BackendUnknown
		rt.breakers[b] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
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

func (rt *Router) jitter() float64 {
	rt.randMu.Lock()
	defer rt.randMu.Unlock()
	return rt.randF()
}

// backoff returns the sleep before retry `attempt` (0-based):
// base<<attempt capped at max, jittered to [50%, 100%] of that.
func (rt *Router) backoff(attempt int) time.Duration {
	d := rt.cfg.backoffBase() << uint(attempt)
	if max := rt.cfg.backoffMax(); d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(float64(half)*rt.jitter())
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
	state, detail := BackendDown, ""
	if resp, err := rt.client.Do(req); err != nil {
		detail = err.Error()
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			state = BackendReady
		case resp.StatusCode == http.StatusServiceUnavailable:
			state = BackendDraining
		default:
			state = BackendDown
			detail = fmt.Sprintf("readyz: HTTP %d", resp.StatusCode)
		}
	}
	rt.mu.Lock()
	prev := rt.health[addr]
	rt.health[addr] = state
	rt.healthEr[addr] = detail
	rt.mu.Unlock()
	if prev != state {
		rt.cfg.Perf.Counter("router.health.transitions").Add(1)
		rt.logf("router: backend %s %s -> %s %s", addr, prev, state, detail)
	}
}

func (rt *Router) backendState(addr string) (BackendState, string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.health[addr], rt.healthEr[addr]
}

// Shards returns the per-backend health view, ring-independent order.
func (rt *Router) Shards() []ShardHealth {
	out := make([]ShardHealth, 0, len(rt.cfg.Backends))
	for _, b := range rt.cfg.Backends {
		st, detail := rt.backendState(b)
		open, _ := rt.breakers[b].Open()
		out = append(out, ShardHealth{Addr: b, State: st, BreakerOpen: open, Error: detail})
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
	err  error          // transport failure (after retries)
}

// tryBackend performs one proxied exchange with retry+backoff on
// transport failures. The caller owns resp.Body.
func (rt *Router) tryBackend(ctx context.Context, addr, method, path string, body []byte, stream bool) attemptResult {
	br := rt.breakers[addr]
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.retries(); attempt++ {
		if attempt > 0 {
			rt.cfg.Perf.Counter("router.retries").Add(1)
			select {
			case <-time.After(rt.backoff(attempt - 1)):
			case <-ctx.Done():
				return attemptResult{err: ctx.Err()}
			}
		}
		actx := ctx
		var cancel context.CancelFunc = func() {}
		if !stream {
			actx, cancel = context.WithTimeout(ctx, rt.cfg.attemptTimeout())
		}
		req, err := http.NewRequestWithContext(actx, method, addr+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			return attemptResult{err: err}
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			lastErr = err
			if br.Failure() {
				rt.cfg.Perf.Counter("router.breaker.opened").Add(1)
				rt.logf("router: breaker open for %s (%v)", addr, err)
			}
			if ctx.Err() != nil {
				return attemptResult{err: ctx.Err()}
			}
			continue
		}
		br.Success()
		if !stream {
			// Detach the response body from the attempt context: read
			// it fully now so cancel() cannot race the caller's copy.
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			cancel()
			if rerr != nil {
				lastErr = rerr
				continue
			}
			resp.Body = io.NopCloser(bytes.NewReader(data))
			return attemptResult{resp: resp}
		}
		// Streaming: the body stays live; it is bounded by ctx (the
		// client's own connection).
		_ = cancel
		return attemptResult{resp: resp}
	}
	return attemptResult{err: lastErr}
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

// shedAll answers a request for which no candidate could serve:
// aggregated Retry-After (the soonest any candidate might recover,
// never under 1s), per-backend detail in the body. Loud by design.
func (rt *Router) shedAll(w http.ResponseWriter, reasons []string, retryAfter time.Duration) {
	rt.cfg.Perf.Counter("router.shed").Add(1)
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error:        "no backend available: " + strings.Join(reasons, "; "),
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

	var reasons []string
	var retryAfter time.Duration
	bump := func(d time.Duration) {
		if d > retryAfter {
			retryAfter = d
		}
	}
	for i, addr := range rt.ring.Successors(key) {
		if i > 0 {
			rt.cfg.Perf.Counter("router.failover").Add(1)
			rt.logf("router: job %s failing over to %s", short(key), addr)
		}
		if open, rem := rt.breakers[addr].Open(); open && !rt.breakers[addr].Allow() {
			reasons = append(reasons, fmt.Sprintf("%s: circuit open", addr))
			bump(rem)
			continue
		}
		res := rt.tryBackend(r.Context(), addr, http.MethodPost, "/v1/sweeps", body, false)
		if res.err != nil {
			reasons = append(reasons, fmt.Sprintf("%s: %v", addr, res.err))
			bump(rt.cfg.backoffMax())
			continue
		}
		if res.resp.StatusCode == http.StatusServiceUnavailable {
			// Draining or closed: the successor recomputes the sweep;
			// per-shard dedup + journals make that safe.
			reasons = append(reasons, fmt.Sprintf("%s: draining", addr))
			bump(retryAfterOf(res.resp))
			res.resp.Body.Close()
			continue
		}
		relay(w, res.resp)
		return
	}
	rt.shedAll(w, reasons, retryAfter)
}

// handleJobGet routes job reads by the job ID (= request key), passing
// the query string through (e.g. the events stream's interval_ms). A shard
// that answers 404 is not authoritative after a failover — the job may
// live on the ring successor — so 404s continue down the candidate
// list and only surface when every live candidate agrees.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	stream := strings.HasSuffix(r.URL.Path, "/events")
	var reasons []string
	var notFound *http.Response
	for _, addr := range rt.ring.Successors(key) {
		if open, _ := rt.breakers[addr].Open(); open && !rt.breakers[addr].Allow() {
			reasons = append(reasons, fmt.Sprintf("%s: circuit open", addr))
			continue
		}
		res := rt.tryBackend(r.Context(), addr, http.MethodGet, r.URL.RequestURI(), nil, stream)
		if res.err != nil {
			reasons = append(reasons, fmt.Sprintf("%s: %v", addr, res.err))
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
	rt.shedAll(w, reasons, 0)
}

// handleJobList merges every reachable shard's job list.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	type listResp struct {
		Jobs []sched.Snapshot `json:"jobs"`
	}
	var mu sync.Mutex
	var all []sched.Snapshot
	var wg sync.WaitGroup
	for _, addr := range rt.cfg.Backends {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			res := rt.tryBackend(r.Context(), addr, http.MethodGet, "/v1/jobs", nil, false)
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

// Progress fans /v1/progress out to every shard and merges the result.
func (rt *Router) Progress(ctx context.Context) ClusterProgress {
	var mu sync.Mutex
	var cp ClusterProgress
	var wg sync.WaitGroup
	shardErr := make(map[string]string, len(rt.cfg.Backends))
	for _, addr := range rt.cfg.Backends {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			res := rt.tryBackend(ctx, addr, http.MethodGet, "/v1/progress", nil, false)
			if res.err != nil {
				mu.Lock()
				shardErr[addr] = res.err.Error()
				mu.Unlock()
				return
			}
			defer res.resp.Body.Close()
			if res.resp.StatusCode != http.StatusOK {
				mu.Lock()
				shardErr[addr] = fmt.Sprintf("progress: HTTP %d", res.resp.StatusCode)
				mu.Unlock()
				return
			}
			var p sched.Progress
			if err := json.NewDecoder(res.resp.Body).Decode(&p); err != nil {
				mu.Lock()
				shardErr[addr] = "progress: " + err.Error()
				mu.Unlock()
				return
			}
			mu.Lock()
			cp.Progress.Merge(p)
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	cp.Shards = rt.Shards()
	for i := range cp.Shards {
		if e, ok := shardErr[cp.Shards[i].Addr]; ok && cp.Shards[i].Error == "" {
			cp.Shards[i].Error = e
		}
	}
	return cp
}

func (rt *Router) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Progress(r.Context()))
}

// handleReady answers 200 while at least one shard is ready — the
// cluster can still accept work — and 503 otherwise.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, s := range rt.Shards() {
		if s.State == BackendReady && !s.BreakerOpen {
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
