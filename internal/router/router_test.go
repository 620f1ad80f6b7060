package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// ---- breaker ------------------------------------------------------------

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, 5*time.Second, func() time.Time { return now })

	for i := 0; i < 2; i++ {
		if b.Failure() {
			t.Fatalf("breaker opened after %d failures (threshold 3)", i+1)
		}
		if !b.Allow() {
			t.Fatal("closed breaker refused traffic")
		}
	}
	if !b.Failure() {
		t.Fatal("third failure did not open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted traffic inside the cooldown")
	}
	if open, rem := b.Open(); !open || rem != 5*time.Second {
		t.Fatalf("Open = %v, %v", open, rem)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe restarts the cooldown.
	b.Failure()
	if b.Allow() {
		t.Fatal("probe admitted right after a failed probe")
	}
	now = now.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker (after probe success) refused traffic")
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
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = 2 * time.Millisecond
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
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL, c.srv.URL}, Retries: 1})

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
// Retry-After covering the worst candidate.
func TestShedAllAggregatesRetryAfter(t *testing.T) {
	a, b := newFakeBackend(t), newFakeBackend(t)
	a.draining.Store(true)
	b.draining.Store(true)
	rt := testRouter(t, Config{Backends: []string{a.srv.URL, b.srv.URL}})

	w := postSweep(t, rt, tinyBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-draining submit = %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want aggregated 7", ra)
	}
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	for _, fb := range []*fakeBackend{a, b} {
		if !strings.Contains(eb.Error, fb.srv.URL) {
			t.Errorf("shed error does not name %s: %q", fb.srv.URL, eb.Error)
		}
	}
	if eb.RetryAfterMS != 7000 {
		t.Errorf("retry_after_ms = %d, want 7000", eb.RetryAfterMS)
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

// TestClusterProgressMerge checks /v1/progress fans out and merges, and
// that the top-level JSON stays decodable as a plain sched.Progress
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

	rt := testRouter(t, Config{Backends: []string{s1.URL, s2.URL, down.URL}, Retries: 1})
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
	var cp ClusterProgress
	if err := json.Unmarshal(w.Body.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(cp.Shards))
	}
	var downErr string
	for _, s := range cp.Shards {
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

	waitState := func(want BackendState) {
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

	waitState(BackendReady)
	get := func() int {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return w.Code
	}
	if get() != http.StatusOK {
		t.Fatal("readyz not 200 with a ready backend")
	}
	a.draining.Store(true)
	waitState(BackendDraining)
	if get() != http.StatusServiceUnavailable {
		t.Fatal("readyz not 503 with every backend draining")
	}
	a.draining.Store(false)
	waitState(BackendReady)
	if get() != http.StatusOK {
		t.Fatal("readyz did not recover")
	}
}
