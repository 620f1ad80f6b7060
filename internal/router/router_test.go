package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/sched"
)

// ---- ring ---------------------------------------------------------------

func TestRingDeterministicAndComplete(t *testing.T) {
	backends := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(backends)
	r2 := newRing(backends)
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
		owned[r1.Owner(key)]++
		succ := r1.Successors(key)
		if len(succ) != len(backends) {
			t.Fatalf("Successors(%q) = %v, want all %d backends", key, succ, len(backends))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("Successors(%q) repeats %s", key, s)
			}
			seen[s] = true
		}
	}
	// With 64 vnodes per backend the spread over 300 keys cannot leave
	// a backend starved (a loose bound; the point is no empty shard).
	for _, b := range backends {
		if owned[b] < 30 {
			t.Errorf("backend %s owns only %d/300 keys", b, owned[b])
		}
	}
}

// TestRingStability pins the consistent-hash property: removing one
// backend only remaps the keys it owned; every other key keeps its
// owner.
func TestRingStability(t *testing.T) {
	full := newRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	less := newRing([]string{"http://a:1", "http://c:1"})
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, now := full.Owner(key), less.Owner(key)
		if was == "http://b:1" {
			continue // its keys must move somewhere
		}
		if was != now {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed backend changed owner", moved)
	}
}

func TestRingEmpty(t *testing.T) {
	r := newRing(nil)
	if r.Owner("k") != "" || r.Successors("k") != nil {
		t.Error("empty ring returned owners")
	}
}

// ---- router over fake backends -----------------------------------------

// fakeBackend is a minimal speard look-alike for pure routing tests.
// The flags are atomic: the test goroutine flips them while the
// router's health checker reads concurrently.
type fakeBackend struct {
	srv      *httptest.Server
	submits  atomic.Int64
	draining atomic.Bool
}

func newFakeBackend(t *testing.T) *fakeBackend {
	fb := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if fb.draining.Load() {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining", RetryAfterMS: 7000})
			return
		}
		fb.submits.Add(1)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": "job", "served_by": fb.srv.URL})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if fb.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	fb.srv = httptest.NewServer(mux)
	t.Cleanup(fb.srv.Close)
	return fb
}

func testRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postSweep(t *testing.T, rt *Router, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	return w
}

const tinyBody = `{"kernels":["alpha"],"configs":["baseline"],"seed":1}`

func TestNewNoBackends(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoBackends {
		t.Fatalf("New with no backends = %v, want ErrNoBackends", err)
	}
	if _, err := New(Config{Backends: []string{" ", ""}}); err != ErrNoBackends {
		t.Fatalf("New with blank backends = %v, want ErrNoBackends", err)
	}
}

// TestSubmitFailoverToSuccessor kills the owner and checks the
// submission lands on a live backend instead.
func TestSubmitFailoverToSuccessor(t *testing.T) {
	a, b, c := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	all := []*fakeBackend{a, b, c}
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL, c.srv.URL}})

	var req sched.Request
	if err := json.Unmarshal([]byte(tinyBody), &req); err != nil {
		t.Fatal(err)
	}
	owner := rt.ring.Owner(req.Key())
	for _, fb := range all {
		if fb.srv.URL == owner {
			fb.srv.Close() // the owner is gone before the request arrives
		}
	}

	w := postSweep(t, rt, tinyBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit with dead owner = %d: %s", w.Code, w.Body)
	}
	total := 0
	for _, fb := range all {
		total += int(fb.submits.Load())
	}
	if total != 1 {
		t.Errorf("submission reached %d backends, want exactly 1", total)
	}
}

// TestSubmitDrainingFailsOver pins the draining path: a 503 from the
// owner sends the sweep to the successor, not back to the client.
func TestSubmitDrainingFailsOver(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})

	var req sched.Request
	json.Unmarshal([]byte(tinyBody), &req)
	for _, fb := range []*fakeBackend{a, b} {
		if fb.srv.URL == rt.ring.Owner(req.Key()) {
			fb.draining.Store(true)
		}
	}
	w := postSweep(t, rt, tinyBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit with draining owner = %d: %s", w.Code, w.Body)
	}
	if a.submits.Load()+b.submits.Load() != 1 {
		t.Errorf("submission reached %d backends, want 1", a.submits.Load()+b.submits.Load())
	}
}

// TestShedAllAggregatesRetryAfter is the never-silent contract: every
// candidate down or draining yields one 503 naming each backend, with a
// Retry-After covering the worst candidate. A draining shard brings its
// own estimate; a shard whose exchange failed brings the health
// interval, the soonest its next probe can restore it.
func TestShedAllAggregatesRetryAfter(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.draining.Store(true)
	b.draining.Store(true)
	dead := httptest.NewServer(nil)
	dead.Close()

	for _, tc := range []struct {
		name     string
		interval time.Duration
		want     int // seconds
	}{
		{"draining estimate dominates", 50 * time.Millisecond, 7},
		{"health interval dominates", 9 * time.Second, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL, dead.URL}, HealthInterval: tc.interval})
			w := postSweep(t, rt, tinyBody)
			if w.Code != http.StatusServiceUnavailable {
				t.Fatalf("all-draining-or-dead submit = %d, want 503", w.Code)
			}
			if ra := w.Header().Get("Retry-After"); ra != strconv.Itoa(tc.want) {
				t.Errorf("Retry-After = %q, want aggregated %d", ra, tc.want)
			}
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			for _, addr := range []string{a.srv.URL, b.srv.URL, dead.URL} {
				if !strings.Contains(eb.Error, addr) {
					t.Errorf("shed error does not name %s: %q", addr, eb.Error)
				}
			}
			if eb.RetryAfterMS != int64(tc.want)*1000 {
				t.Errorf("retry_after_ms = %d, want %d", eb.RetryAfterMS, tc.want*1000)
			}
		})
	}
}

func TestBadSubmitBodyRejected(t *testing.T) {
	a := newFakeBackend(t)
	rt := testRouter(t, Config{Backends: []string{a.srv.URL}})
	if w := postSweep(t, rt, "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", w.Code)
	}
	if a.submits.Load() != 0 {
		t.Error("malformed body reached a backend")
	}
}

// TestJobGetFallsThrough404 pins the read failover: a shard answering
// 404 is not authoritative; the router keeps walking the ring and
// serves the successor's copy.
func TestJobGetFallsThrough404(t *testing.T) {
	miss := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
	}))
	defer miss.Close()
	hit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Spear-Cache", "hit")
		writeJSON(w, http.StatusOK, map[string]string{"report": "yes"})
	}))
	defer hit.Close()

	rt := testRouter(t, Config{Backends: []string{miss.URL, hit.URL}})
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/abc/report", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET with one 404 shard = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("X-Spear-Cache") != "hit" {
		t.Error("upstream X-Spear-Cache header not relayed")
	}

	// Both miss: the 404 surfaces (not a 503).
	rt2 := testRouter(t, Config{Backends: []string{miss.URL}})
	w2 := httptest.NewRecorder()
	rt2.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/v1/jobs/abc/report", nil))
	if w2.Code != http.StatusNotFound {
		t.Fatalf("GET with all-404 shards = %d, want 404", w2.Code)
	}
}

// TestJobGetForwardsQuery pins that job reads reach the shard with their
// query string: the events stream's interval_ms must not be dropped.
func TestJobGetForwardsQuery(t *testing.T) {
	var got atomic.Value
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/jobs/") { // not the health checker's /readyz
			got.Store(r.URL.RequestURI())
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": "done"})
	}))
	defer backend.Close()

	rt := testRouter(t, Config{Backends: []string{backend.URL}})
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/abc/events?interval_ms=25", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET events = %d: %s", w.Code, w.Body)
	}
	if uri, _ := got.Load().(string); uri != "/v1/jobs/abc/events?interval_ms=25" {
		t.Errorf("backend saw %q, want the query string forwarded", uri)
	}
}

// TestClusterProgressMerge checks /v1/progress fans out and merges into
// the same sched.Progress a single speard serves, plus the health banner
// (the spearstat compatibility contract).
func TestClusterProgressMerge(t *testing.T) {
	mk := func(p sched.Progress) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/progress", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, p)
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		})
		return httptest.NewServer(mux)
	}
	s1 := mk(sched.Progress{JobsDone: 2, JobsRunning: 1})
	defer s1.Close()
	s2 := mk(sched.Progress{JobsDone: 3, JobsFailed: 1})
	defer s2.Close()
	down := httptest.NewServer(nil)
	down.Close() // immediately dead

	rt := testRouter(t, Config{Backends: []string{s1.URL, s2.URL, down.URL}})
	req := httptest.NewRequest(http.MethodGet, "/v1/progress", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("progress = %d", w.Code)
	}

	var flat sched.Progress
	if err := json.Unmarshal(w.Body.Bytes(), &flat); err != nil {
		t.Fatalf("cluster progress not decodable as sched.Progress: %v", err)
	}
	if flat.JobsDone != 5 || flat.JobsRunning != 1 || flat.JobsFailed != 1 {
		t.Errorf("merged counts = done=%d running=%d failed=%d, want 5/1/1",
			flat.JobsDone, flat.JobsRunning, flat.JobsFailed)
	}
	if len(flat.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(flat.Shards))
	}
	var downErr string
	for _, s := range flat.Shards {
		if s.Addr == down.URL {
			downErr = s.Error
		}
	}
	if downErr == "" {
		t.Error("dead shard carries no error detail in the banner")
	}
}

// TestHealthAndReadyz drives the active health checker: readyz follows
// the last live backend down and back up.
func TestHealthAndReadyz(t *testing.T) {
	a := newFakeBackend(t)
	rt := testRouter(t, Config{Backends: []string{a.srv.URL}, HealthInterval: 20 * time.Millisecond})

	waitState := func(want sched.ShardState) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if rt.Shards()[0].State == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("backend never reached %s (now %s)", want, rt.Shards()[0].State)
	}

	waitState(sched.ShardReady)
	get := func() int {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code
	}
	if get() != http.StatusOK {
		t.Fatal("readyz not 200 with a ready backend")
	}
	a.draining.Store(true)
	waitState(sched.ShardDraining)
	if get() != http.StatusServiceUnavailable {
		t.Fatal("readyz not 503 with every backend draining")
	}
	a.draining.Store(false)
	waitState(sched.ShardReady)
	if get() != http.StatusOK {
		t.Fatal("readyz did not recover")
	}
}

// shardState returns the router's health entry for addr.
func shardState(rt *Router, addr string) sched.ShardHealth {
	for _, s := range rt.Shards() {
		if s.Addr == addr {
			return s
		}
	}
	return sched.ShardHealth{}
}

// waitReady blocks until every backend's first probe has landed ready.
func waitReady(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, s := range rt.Shards() {
			if s.State == sched.ShardReady {
				ready++
			}
		}
		if ready == len(rt.cfg.Backends) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("backends never all ready: %+v", rt.Shards())
}

// dialGate is a Config.Transport that counts dials per address and
// refuses the addresses marked dead. Keep-alives are off, so every
// exchange and every probe dials.
type dialGate struct {
	mu    sync.Mutex
	dials map[string]int
	dead  map[string]bool
}

func newDialGate() (*dialGate, *http.Transport) {
	g := &dialGate{dials: map[string]int{}, dead: map[string]bool{}}
	var d net.Dialer
	tr := &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.mu.Lock()
			g.dials[addr]++
			dead := g.dead[addr]
			g.mu.Unlock()
			if dead {
				return nil, errors.New("connection refused")
			}
			return d.DialContext(ctx, network, addr)
		},
	}
	return g, tr
}

func (g *dialGate) set(fb *fakeBackend, dead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dead[fb.srv.Listener.Addr().String()] = dead
}

func (g *dialGate) count(fb *fakeBackend) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dials[fb.srv.Listener.Addr().String()]
}

// TestFailedExchangeMarksShardDown pins the one liveness view routing
// reads: a proxied exchange that fails marks its backend down, later
// submissions skip it without dialing, the next good probe restores it,
// and with every backend down the submission is shed naming each one.
func TestFailedExchangeMarksShardDown(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	gate, tr := newDialGate()
	// The poll never ticks on its own: the test runs each probe.
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}, HealthInterval: time.Hour, Transport: tr})
	waitReady(t, rt)

	var req sched.Request
	json.Unmarshal([]byte(tinyBody), &req)
	owner, other := a, b
	if rt.ring.Owner(req.Key()) == b.srv.URL {
		owner, other = b, a
	}

	gate.set(owner, true)
	if w := postSweep(t, rt, tinyBody); w.Code != http.StatusAccepted {
		t.Fatalf("submit with refusing owner = %d: %s", w.Code, w.Body)
	}
	if h := shardState(rt, owner.srv.URL); h.State != sched.ShardDown || !strings.Contains(h.Error, "connection refused") {
		t.Fatalf("owner after a failed exchange = %+v, want down with the dial error", h)
	}

	dials := gate.count(owner)
	if w := postSweep(t, rt, tinyBody); w.Code != http.StatusAccepted {
		t.Fatalf("submit with down owner = %d: %s", w.Code, w.Body)
	}
	if got := gate.count(owner); got != dials {
		t.Errorf("down owner dialed %d more times, want skipped", got-dials)
	}
	if other.submits.Load() != 2 || owner.submits.Load() != 0 {
		t.Errorf("submits owner=%d other=%d, want 0 and 2", owner.submits.Load(), other.submits.Load())
	}

	gate.set(owner, false)
	rt.checkOne(owner.srv.URL)
	if h := shardState(rt, owner.srv.URL); h.State != sched.ShardReady {
		t.Fatalf("owner after a good probe = %+v, want ready", h)
	}
	if w := postSweep(t, rt, tinyBody); w.Code != http.StatusAccepted || owner.submits.Load() != 1 {
		t.Fatalf("submit after recovery = %d, owner submits %d; want 202 on the owner", w.Code, owner.submits.Load())
	}

	gate.set(a, true)
	gate.set(b, true)
	rt.checkAll()
	da, db := gate.count(a), gate.count(b)
	w := postSweep(t, rt, tinyBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down submit = %d, want 503", w.Code)
	}
	if gate.count(a) != da || gate.count(b) != db {
		t.Error("all-down submit dialed a down backend")
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	for _, fb := range []*fakeBackend{a, b} {
		if !strings.Contains(eb.Error, fb.srv.URL+": down (") {
			t.Errorf("shed error does not name down backend %s: %q", fb.srv.URL, eb.Error)
		}
	}
	if ra := w.Header().Get("Retry-After"); ra != "3600" {
		t.Errorf("Retry-After = %q, want the health interval (3600)", ra)
	}
}

// TestClientCancelKeepsShardLive: clients hanging up on slow reads say
// nothing about the shard, so they must not take it out of service.
func TestClientCancelKeepsShardLive(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the report until the caller gives up
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": "job"})
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()

	rt := testRouter(t, Config{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	readyz := func() int {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code
	}
	for deadline := time.Now().Add(5 * time.Second); readyz() != http.StatusOK; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("backend never probed ready")
		}
	}

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rt.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/jobs/abc/report", nil).WithContext(ctx))
		cancel()
	}

	if w := postSweep(t, rt, tinyBody); w.Code != http.StatusAccepted {
		t.Errorf("submit after cancelled reads = %d, want 202: %s", w.Code, w.Body)
	}
	if code := readyz(); code != http.StatusOK {
		t.Errorf("proxy readyz after cancelled reads = %d, want 200", code)
	}
}

// TestHungOwnerCostsOneAttempt pins the one-attempt rule: an owner that
// accepts the submission but never answers costs exactly one attempt
// timeout, is marked down, and the submission lands on the successor.
func TestHungOwnerCostsOneAttempt(t *testing.T) {
	var hungPosts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		hungPosts.Add(1)
		io.Copy(io.Discard, r.Body) // lets the server notice the hang-up
		<-r.Context().Done()
	})
	hung := httptest.NewServer(mux)
	defer hung.Close()
	live := newFakeBackend(t)

	// The poll never ticks on its own, so only the exchange can mark
	// the owner down.
	rt := testRouter(t, Config{
		Backends:       []string{hung.URL, live.srv.URL},
		HealthInterval: time.Hour,
		AttemptTimeout: 50 * time.Millisecond,
	})
	waitReady(t, rt)

	// Pick a body whose ring owner is the hung backend.
	var body string
	for seed := 1; ; seed++ {
		body = fmt.Sprintf(`{"kernels":["alpha"],"configs":["baseline"],"seed":%d}`, seed)
		var req sched.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if rt.ring.Owner(req.Key()) == hung.URL {
			break
		}
	}

	if w := postSweep(t, rt, body); w.Code != http.StatusAccepted {
		t.Fatalf("submit with hung owner = %d: %s", w.Code, w.Body)
	}
	if n := hungPosts.Load(); n != 1 {
		t.Errorf("hung owner saw %d POSTs, want exactly 1", n)
	}
	if live.submits.Load() != 1 {
		t.Errorf("successor saw %d submissions, want 1", live.submits.Load())
	}
	if h := shardState(rt, hung.URL); h.State != sched.ShardDown {
		t.Errorf("hung owner after its attempt timed out = %+v, want down", h)
	}
}

// TestStaleKeepAliveSubmitReplays pins why a submission needs no retry
// loop: a backend that reads a POST on a reused keep-alive connection
// and hangs up without answering is the classic stale-connection race,
// and net/http replays the POST on a fresh connection because it carries
// an Idempotency-Key. The shard answers, so it stays live.
func TestStaleKeepAliveSubmitReplays(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted, hangups atomic.Int64
	serve := func(c net.Conn) {
		defer c.Close()
		br := bufio.NewReader(c)
		servedPost := false
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, req.Body)
			if req.Method != http.MethodPost {
				fmt.Fprint(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")
				continue
			}
			if servedPost {
				hangups.Add(1)
				return // the second POST on this connection is read, then dropped
			}
			servedPost = true
			accepted.Add(1)
			const body = `{"id":"job"}`
			fmt.Fprintf(c, "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	addr := "http://" + ln.Addr().String()
	rt := testRouter(t, Config{Backends: []string{addr}, HealthInterval: time.Hour, Transport: tr})
	waitReady(t, rt)

	for i := 0; i < 2; i++ {
		if w := postSweep(t, rt, tinyBody); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202: %s", i, w.Code, w.Body)
		}
	}
	if hangups.Load() != 1 || accepted.Load() != 2 {
		t.Fatalf("backend hung up %d times and accepted %d POSTs, want 1 and 2", hangups.Load(), accepted.Load())
	}
	if h := shardState(rt, addr); h.State != sched.ShardReady {
		t.Errorf("shard after a replayed submission = %+v, want ready", h)
	}
}
