package speard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/asm"
	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/prog"
	"spear/internal/sched"
)

// tinyLoop simulates in a few hundred cycles; server tests run real
// sweeps end to end and cannot afford kernel preparation.
const tinyLoop = `
main:   li r1, 0
        li r2, 64
loop:   addi r1, r1, 1
        blt r1, r2, loop
        halt
`

func tinyOptions() harness.Options {
	return harness.Options{
		Parallel: 1,
		Seed:     1,
	}
}

// staticEngine assembles src once per requested kernel name instead of
// preparing real workloads.
func staticEngine(t testing.TB, base harness.Options, src string) *sched.SuiteEngine {
	t.Helper()
	e := sched.NewSuiteEngine(base)
	e.NewSuite = func(_ context.Context, opts harness.Options) (*harness.Suite, error) {
		progs := make([]*prog.Program, 0, len(opts.Kernels))
		for _, name := range opts.Kernels {
			p, err := asm.Assemble(name+".s", src)
			if err != nil {
				return nil, err
			}
			p.Name = name
			progs = append(progs, p)
		}
		return harness.NewStaticSuite(opts, progs...), nil
	}
	return e
}

func tinyRequest() sched.Request {
	return sched.Request{Kernels: []string{"alpha", "beta"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 1}
}

// testServer wires engine → scheduler → HTTP server, and tears all of
// it down with the test.
func testServer(t *testing.T, eng sched.Engine, cfg sched.Config) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	sc := sched.New(eng, cfg)
	ts := httptest.NewServer(New(sc, cfg.Perf).Handler())
	t.Cleanup(func() { ts.Close(); sc.Close() })
	return ts, sc
}

func postSweep(t *testing.T, ts *httptest.Server, req sched.Request) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnapshot(t *testing.T, resp *http.Response) sched.Snapshot {
	t.Helper()
	defer resp.Body.Close()
	var snap sched.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// pollDone polls the job endpoint until the job is terminal.
func pollDone(t *testing.T, ts *httptest.Server, id string) sched.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeSnapshot(t, resp)
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never became terminal", id)
	return sched.Snapshot{}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestSubmitLifecycleAndReportBytes drives the full HTTP lifecycle:
// POST → 202, identical POST → 200 coalesced, report served with the
// exact bytes harness.Report.WriteJSON produces for the same work.
func TestSubmitLifecycleAndReportBytes(t *testing.T) {
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop), sched.Config{Workers: 1})

	resp := postSweep(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	snap := decodeSnapshot(t, resp)
	final := pollDone(t, ts, snap.ID)
	if final.State != sched.JobDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}

	// Identical resubmission coalesces: 200, same job, no new work.
	resp2 := postSweep(t, ts, tinyRequest())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("coalesced POST status = %d, want 200", resp2.StatusCode)
	}
	if again := decodeSnapshot(t, resp2); again.ID != snap.ID {
		t.Errorf("coalesced job ID %s != original %s", again.ID, snap.ID)
	}

	// The served report is byte-identical to a direct engine run's.
	status, got := getBody(t, ts.URL+"/v1/jobs/"+snap.ID+"/report")
	if status != http.StatusOK {
		t.Fatalf("report status = %d: %s", status, got)
	}
	clean, _, err := sched.Exec(context.Background(), staticEngine(t, tinyOptions(), tinyLoop), tinyRequest(), sched.JournalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := clean.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP report differs from direct run:\nhttp:\n%s\ndirect:\n%s", got, want.Bytes())
	}

	// Jobs listing knows the job; an unknown ID is a JSON 404.
	if status, body := getBody(t, ts.URL+"/v1/jobs"); status != http.StatusOK || !strings.Contains(string(body), snap.ID) {
		t.Errorf("jobs list status=%d body=%s", status, body)
	}
	if status, _ := getBody(t, ts.URL+"/v1/jobs/nope"); status != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", status)
	}
}

// blockingEngine runs forever until released (or cancelled), for
// admission-shape tests.
type blockingEngine struct {
	mu      sync.Mutex
	release chan struct{}
	started chan struct{}
}

func (b *blockingEngine) Sweep(ctx context.Context, req sched.Request, j *harness.SweepJournal) (*harness.Report, error) {
	if b.started != nil {
		b.started <- struct{}{}
	}
	select {
	case <-b.release:
		return &harness.Report{}, nil
	case <-ctx.Done():
		return &harness.Report{Interrupted: true}, nil
	}
}

// TestQueueFull429WithRetryAfter is the load-shedding acceptance shape:
// a full queue answers 429 with a Retry-After header and a typed JSON
// body, and the rejected submission leaves no job (and no journal
// directory) behind.
func TestQueueFull429WithRetryAfter(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{}), started: make(chan struct{}, 4)}
	dataDir := t.TempDir()
	ts, sc := testServer(t, eng, sched.Config{Workers: 1, QueueDepth: 1, DataDir: dataDir})

	r1 := tinyRequest()
	if resp := postSweep(t, ts, r1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d", resp.StatusCode)
	}
	<-eng.started // the worker picked it up; the queue is empty again
	r2 := tinyRequest()
	r2.Seed = 2
	if resp := postSweep(t, ts, r2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST = %d", resp.StatusCode)
	}

	r3 := tinyRequest()
	r3.Seed = 3
	resp := postSweep(t, ts, r3)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	var eb struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "queue full") || eb.RetryAfterMS <= 0 {
		t.Errorf("error body = %+v", eb)
	}

	// The shed never became a job and never touched storage.
	if _, ok := sc.Job(r3.Key()); ok {
		t.Error("shed submission left a job behind")
	}
	if dir := sc.JournalDir(r3); dirExists(dir) {
		t.Errorf("shed submission created journal dir %s", dir)
	}
	close(eng.release)
}

func dirExists(dir string) bool {
	_, err := os.Stat(dir)
	return err == nil
}

// TestBadRequest400 pins the validation shape: an unknown config is a
// 400 with the scheduler's typed message, and malformed JSON is a 400.
func TestBadRequest400(t *testing.T) {
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop), sched.Config{})
	req := tinyRequest()
	req.Configs = []string{"warp-drive"}
	resp := postSweep(t, ts, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown config POST = %d, want 400", resp.StatusCode)
	}
	raw, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed POST = %d, want 400", raw.StatusCode)
	}
}

// TestHealthReadyAndDrain pins the probe semantics: healthz is always
// 200 (the process lives), readyz flips to 503 when the drain starts,
// and a submission during drain is 503 with Retry-After.
func TestHealthReadyAndDrain(t *testing.T) {
	eng := &blockingEngine{release: make(chan struct{}), started: make(chan struct{}, 1)}
	ts, sc := testServer(t, eng, sched.Config{Workers: 1})

	if status, _ := getBody(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz = %d", status)
	}
	if status, _ := getBody(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("readyz before drain = %d", status)
	}

	if resp := postSweep(t, ts, tinyRequest()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	<-eng.started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- sc.Drain(ctx)
	}()
	for !sc.Draining() {
		time.Sleep(time.Millisecond)
	}

	if status, _ := getBody(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness is not readiness)", status)
	}
	if status, _ := getBody(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", status)
	}
	late := tinyRequest()
	late.Seed = 9
	resp := postSweep(t, ts, late)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}

	close(eng.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
}

// TestSSEStreamsJobToDone subscribes to a job's event stream and
// asserts it ends with a terminal "done" event whose snapshot matches
// the job's final state.
func TestSSEStreamsJobToDone(t *testing.T) {
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop), sched.Config{Workers: 1})
	snap := decodeSnapshot(t, postSweep(t, ts, tinyRequest()))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/events?interval_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var lastEvent string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			lastEvent = strings.TrimPrefix(line, "event: ")
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastEvent != "done" {
		t.Fatalf("stream ended with event %q, want done", lastEvent)
	}
	var final sched.Snapshot
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != sched.JobDone {
		t.Errorf("final streamed state = %s, want done", final.State)
	}
}

// TestProgressEndpoint checks the aggregate after a journaled job: the
// run-level counts come from the same journal a crash would replay.
func TestProgressEndpoint(t *testing.T) {
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop),
		sched.Config{Workers: 1, DataDir: t.TempDir()})
	snap := decodeSnapshot(t, postSweep(t, ts, tinyRequest()))
	pollDone(t, ts, snap.ID)

	status, body := getBody(t, ts.URL+"/v1/progress")
	if status != http.StatusOK {
		t.Fatalf("progress = %d", status)
	}
	var p sched.Progress
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.JobsDone != 1 || p.Runs.Done != 4 {
		t.Errorf("progress = jobs_done=%d runs.done=%d, want 1 and 4 (2 kernels x 2 configs)", p.JobsDone, p.Runs.Done)
	}

	// One SSE frame from the progress stream parses to the same shape.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/progress/events?interval_ms=100", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scn := bufio.NewScanner(resp.Body)
	for scn.Scan() {
		if strings.HasPrefix(scn.Text(), "data: ") {
			var sp sched.Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(scn.Text(), "data: ")), &sp); err != nil {
				t.Fatalf("SSE progress frame: %v", err)
			}
			if sp.JobsDone != 1 {
				t.Errorf("streamed jobs_done = %d, want 1", sp.JobsDone)
			}
			return
		}
	}
	t.Fatal("no data frame before stream closed")
}

// TestProgressWireBytes pins a single speard's /v1/progress body byte
// for byte: the shards banner a router adds stays off the wire here.
func TestProgressWireBytes(t *testing.T) {
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop), sched.Config{Workers: 1})
	status, body := getBody(t, ts.URL+"/v1/progress")
	if status != http.StatusOK {
		t.Fatalf("progress = %d", status)
	}
	const want = `{
  "jobs_queued": 0,
  "jobs_running": 0,
  "jobs_done": 0,
  "jobs_failed": 0,
  "jobs_interrupted": 0,
  "jobs_shed": 0,
  "runs": {
    "done": 0,
    "failed": 0,
    "skipped": 0
  }
}
`
	if string(body) != want {
		t.Errorf("idle /v1/progress body changed:\n%s\nwant:\n%s", body, want)
	}
}

// TestMetricsServed sanity-checks that /metrics serves the registry the
// scheduler counts into.
func TestMetricsServed(t *testing.T) {
	reg := perf.NewRegistry()
	ts, _ := testServer(t, staticEngine(t, tinyOptions(), tinyLoop),
		sched.Config{Workers: 1, Perf: reg})
	snap := decodeSnapshot(t, postSweep(t, ts, tinyRequest()))
	pollDone(t, ts, snap.ID)
	status, body := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK || !strings.Contains(string(body), "sched.jobs.done") {
		t.Errorf("metrics status=%d body=%s", status, body)
	}
	if status, _ := getBody(t, ts.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("pprof cmdline = %d", status)
	}
}
