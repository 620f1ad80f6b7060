package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/asm"
	"spear/internal/harness"
	"spear/internal/journal"
	"spear/internal/prog"
	"spear/internal/sched"
	"spear/internal/speard"
	"spear/internal/store"
)

// The cluster tortures run real speard stacks — scheduler + journal +
// completed-report store + HTTP server — behind a real router, and
// deliver SIGKILL-equivalents to individual shards. They pin the three
// acceptance properties of the sharded deployment:
//
//  1. a shard killed mid-sweep loses nothing: resubmitting through the
//     router converges to the byte-identical serial reference, whether
//     the work fails over to the ring successor or resumes on the
//     restarted owner;
//  2. reports finished before a kill are served from the restarted
//     shard's own journals with zero re-execution (X-Spear-Cache: hit);
//  3. a corrupted stored report is quarantined and re-executed — never
//     served — and the re-execution still converges byte-identically.

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

func staticEngine(t *testing.T, base harness.Options, src string) *sched.SuiteEngine {
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

// serialReference computes the convergence target: the report of an
// uninterrupted, journal-less, single-process run.
func serialReference(t *testing.T, req sched.Request) []byte {
	t.Helper()
	rep, _, err := sched.Exec(context.Background(), staticEngine(t, tinyOptions(), tinyLoop), req, sched.JournalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shard is one in-process speard: scheduler + report store + HTTP
// server on a stable address that survives kill/restart cycles.
type shard struct {
	addr    string // host:port, fixed across restarts
	dataDir string
	sched   *sched.Scheduler
	srv     *http.Server
	ln      net.Listener
}

// startShard boots a shard. addr "" picks a fresh port; a previous
// shard's addr rebinds it (the restart-after-kill path).
func startShard(t *testing.T, addr, dataDir string, eng sched.Engine) *shard {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// Rebinding immediately after a kill can transiently fail while the
	// kernel tears the old socket down; retry briefly.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	ix, err := store.Open(store.Config{Dir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(eng, sched.Config{Workers: 1, DataDir: dataDir, Store: ix})
	srv := &http.Server{Handler: speard.New(s, nil).Handler()}
	sh := &shard{addr: ln.Addr().String(), dataDir: dataDir, sched: s, srv: srv, ln: ln}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return sh
}

func (sh *shard) url() string { return "http://" + sh.addr }

// kill is the SIGKILL-equivalent: cancel everything mid-flight and tear
// the listener down with no drain and no grace. Only the journal's
// fsync'd records survive. Deliberately NOT sched.Close(): that waits
// for workers, and a real SIGKILL waits for nothing (the registered
// cleanup reaps the goroutines at test end).
func (sh *shard) kill() {
	sh.sched.Kill()
	sh.srv.Close()
}

// cluster is three shards behind a router.
type cluster struct {
	shards []*shard
	rt     *Router
	front  *http.Server
	ln     net.Listener
}

func startCluster(t *testing.T, engines []sched.Engine) *cluster {
	t.Helper()
	c := &cluster{}
	urls := make([]string, len(engines))
	for i, eng := range engines {
		sh := startShard(t, "", t.TempDir(), eng)
		c.shards = append(c.shards, sh)
		urls[i] = sh.url()
	}
	rt, err := New(Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	t.Cleanup(rt.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ln = ln
	c.front = &http.Server{Handler: rt}
	go c.front.Serve(ln)
	t.Cleanup(func() { c.front.Close() })
	return c
}

func (c *cluster) url() string { return "http://" + c.ln.Addr().String() }

// owner returns the shard owning the request key on the ring.
func (c *cluster) owner(key string) *shard {
	addr := c.rt.ring.Owner(key)
	for _, sh := range c.shards {
		if sh.url() == addr {
			return sh
		}
	}
	return nil
}

func httpPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func httpGet(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header
}

// pollReport polls the router for a job's report until it is served
// (200) or the deadline passes.
func pollReport(t *testing.T, base, id string) ([]byte, http.Header) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body, hdr := httpGet(t, base+"/v1/jobs/"+id+"/report")
		switch code {
		case http.StatusOK:
			return body, hdr
		case http.StatusConflict, http.StatusNotFound, http.StatusServiceUnavailable:
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("report poll: HTTP %d: %s", code, body)
		}
	}
	t.Fatal("report never became available")
	return nil, nil
}

func reqBody(t *testing.T, req sched.Request) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// awaitKillPoint waits for a gatedHook to signal its kill point. A job
// that settles first never gets there, so the wait is bounded: the test
// fails instead of blocking until the go test timeout.
func awaitKillPoint(t *testing.T, reached <-chan struct{}) {
	t.Helper()
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never reached its kill point (did the job settle first?)")
	}
}

// gatedHook returns a FaultHook that blocks the killAfter-th run until
// release closes, signalling reached — the mid-sweep kill window. After
// release, every run (on any shard sharing the hook) passes freely.
func gatedHook(killAfter int, reached, release chan struct{}) func(kernel, config string) error {
	var mu sync.Mutex
	var once sync.Once
	runs := 0
	return func(kernel, config string) error {
		mu.Lock()
		runs++
		n := runs
		mu.Unlock()
		if n == killAfter {
			once.Do(func() { close(reached) })
			<-release
		}
		return nil
	}
}

// TestClusterKillMidSweepFailsOverByteIdentical is torture (1): the
// owner is killed mid-sweep; the resubmission through the router fails
// over to the ring successor, which recomputes the sweep from scratch
// (its journal is empty — dedup by content hash is what makes the
// recompute safe) and converges to the byte-identical serial reference.
func TestClusterKillMidSweepFailsOverByteIdentical(t *testing.T) {
	req := sched.Request{Kernels: []string{"alpha", "beta"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 1}
	want := serialReference(t, req)

	reached := make(chan struct{})
	release := make(chan struct{})
	hook := gatedHook(2, reached, release)
	engines := make([]sched.Engine, 3)
	for i := range engines {
		opts := tinyOptions()
		opts.FaultHook = hook
		engines[i] = staticEngine(t, opts, tinyLoop)
	}
	c := startCluster(t, engines)

	code, body := httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var snap sched.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	key := snap.ID

	awaitKillPoint(t, reached) // the owner is mid-sweep, one run journaled, one blocked
	owner := c.owner(key)
	if owner == nil {
		t.Fatal("no shard owns the submitted key")
	}
	owner.kill()
	close(release)

	// Resubmit through the router: the dead owner fails its connection
	// attempts and the ring successor takes the job.
	code, body = httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit after kill = %d: %s", code, body)
	}
	got, _ := pollReport(t, c.url(), key)
	if !bytes.Equal(got, want) {
		t.Errorf("failover report differs from the serial reference\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestClusterKillRestartResumesOwner is torture (1b): same kill, but
// the owner restarts over its own data dir (same address) before the
// resubmission. The restarted owner resumes its torn journal and
// converges — the replayed runs are never re-executed.
func TestClusterKillRestartResumesOwner(t *testing.T) {
	req := sched.Request{Kernels: []string{"alpha", "beta"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 2}
	want := serialReference(t, req)

	reached := make(chan struct{})
	release := make(chan struct{})
	hook := gatedHook(2, reached, release)
	engines := make([]sched.Engine, 3)
	for i := range engines {
		opts := tinyOptions()
		opts.FaultHook = hook
		engines[i] = staticEngine(t, opts, tinyLoop)
	}
	c := startCluster(t, engines)

	code, body := httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var snap sched.Snapshot
	json.Unmarshal(body, &snap)
	key := snap.ID

	awaitKillPoint(t, reached)
	owner := c.owner(key)
	owner.kill()
	close(release)

	// Restart the owner on the same address over the same data dir.
	restarted := startShard(t, owner.addr, owner.dataDir, staticEngine(t, tinyOptions(), tinyLoop))
	if restarted.addr != owner.addr {
		t.Fatalf("restarted shard on %s, want %s", restarted.addr, owner.addr)
	}

	// Wait for the router's health view to see it ready again so the
	// resubmission routes to the owner, not around it.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if shardState(c.rt, owner.url()).State == sched.ShardReady {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, body = httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit after restart = %d: %s", code, body)
	}
	got, _ := pollReport(t, c.url(), key)
	if !bytes.Equal(got, want) {
		t.Errorf("restarted-owner report differs from the serial reference\nwant:\n%s\ngot:\n%s", want, got)
	}

	// The journal healed on resume.
	rep, err := journal.Fsck(nil, filepath.Join(owner.dataDir, key+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("journal still damaged after resume:\n%s", rep.Summary())
	}
}

// countingEngine wraps a SuiteEngine and counts Sweep invocations — the
// zero-re-execution proof for store hits.
type countingEngine struct {
	inner sched.Engine
	mu    sync.Mutex
	runs  int
}

func (e *countingEngine) Sweep(ctx context.Context, req sched.Request, j *harness.SweepJournal) (*harness.Report, error) {
	e.mu.Lock()
	e.runs++
	e.mu.Unlock()
	return e.inner.Sweep(ctx, req, j)
}

func (e *countingEngine) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runs
}

// TestClusterRestartServesStoredReport is torture (2): a sweep finishes
// before the kill; the restarted shard indexes it from disk at startup
// and the resubmission is answered from the store — done snapshot,
// X-Spear-Cache: hit, byte-identical bytes, zero engine invocations.
func TestClusterRestartServesStoredReport(t *testing.T) {
	req := sched.Request{Kernels: []string{"alpha"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 3}

	engines := make([]sched.Engine, 3)
	for i := range engines {
		engines[i] = staticEngine(t, tinyOptions(), tinyLoop)
	}
	c := startCluster(t, engines)

	code, body := httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var snap sched.Snapshot
	json.Unmarshal(body, &snap)
	key := snap.ID
	want, hdr := pollReport(t, c.url(), key)
	if got := hdr.Get("X-Spear-Cache"); got != "miss" {
		t.Errorf("fresh report X-Spear-Cache = %q, want miss", got)
	}

	owner := c.owner(key)
	owner.kill()

	counting := &countingEngine{inner: staticEngine(t, tinyOptions(), tinyLoop)}
	restarted := startShard(t, owner.addr, owner.dataDir, counting)
	_ = restarted

	// Resubmit the identical request through the router: the restarted
	// owner must answer from its store without executing anything.
	deadline := time.Now().Add(10 * time.Second)
	var resnap sched.Snapshot
	for {
		code, body = httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
		if code == http.StatusAccepted || code == http.StatusOK {
			if err := json.Unmarshal(body, &resnap); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmit after restart = %d: %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resnap.State != sched.JobDone || !resnap.CacheHit {
		t.Errorf("resubmit snapshot: state=%s cache_hit=%v, want done hit", resnap.State, resnap.CacheHit)
	}
	got, hdr := pollReport(t, c.url(), key)
	if hdr.Get("X-Spear-Cache") != "hit" {
		t.Errorf("stored report X-Spear-Cache = %q, want hit", hdr.Get("X-Spear-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stored report differs from the pre-kill bytes\nwant:\n%s\ngot:\n%s", want, got)
	}
	if n := counting.count(); n != 0 {
		t.Errorf("restarted shard executed %d sweep(s) for stored work, want 0", n)
	}
}

// TestClusterCorruptStoredReportQuarantined is torture (3): the stored
// report record is bit-flipped on disk while the shard is down. The
// restart must quarantine it — never serve the corrupt bytes — and the
// resubmission re-executes and still converges byte-identically.
func TestClusterCorruptStoredReportQuarantined(t *testing.T) {
	req := sched.Request{Kernels: []string{"beta"}, Configs: []string{"baseline"}, Seed: 4}
	want := serialReference(t, req)

	engines := make([]sched.Engine, 3)
	for i := range engines {
		engines[i] = staticEngine(t, tinyOptions(), tinyLoop)
	}
	c := startCluster(t, engines)

	code, body := httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var snap sched.Snapshot
	json.Unmarshal(body, &snap)
	key := snap.ID
	pre, _ := pollReport(t, c.url(), key)
	if !bytes.Equal(pre, want) {
		t.Fatal("pre-kill report already differs from the serial reference")
	}

	owner := c.owner(key)
	owner.kill()

	// Bit-flip the stored report record, then append a run record so
	// the damage is interior (quarantine, not torn-tail trim) — the
	// same sequence a real resubmit-after-damage produces.
	jdir := filepath.Join(owner.dataDir, key+".journal")
	corruptReportLine(t, jdir)
	w, err := journal.Open(jdir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(journal.Record{Status: journal.StatusStarted, Key: "post-corruption", Kernel: "k"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	counting := &countingEngine{inner: staticEngine(t, tinyOptions(), tinyLoop)}
	startShard(t, owner.addr, owner.dataDir, counting)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
		if code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resubmit after corruption = %d: %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got, hdr := pollReport(t, c.url(), key)
	if hdr.Get("X-Spear-Cache") == "hit" {
		t.Error("corrupted stored report served as a cache hit")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-executed report differs from the serial reference\nwant:\n%s\ngot:\n%s", want, got)
	}
	if n := counting.count(); n == 0 {
		t.Error("corrupted store entry served without re-execution")
	}
	if _, err := os.Stat(filepath.Join(jdir, journal.QuarantineName)); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
}

// corruptReportLine bit-flips one byte inside the journal line holding
// the stored report record.
func corruptReportLine(t *testing.T, jdir string) {
	t.Helper()
	path := filepath.Join(jdir, journal.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	hit := false
	for i, line := range lines {
		if bytes.Contains(line, []byte(`report/`)) && len(line) > 10 {
			line[len(line)-5] ^= 0x01
			lines[i] = line
			hit = true
			break
		}
	}
	if !hit {
		t.Fatalf("no report record found in %s", path)
	}
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestClusterProgressAcrossShards spreads several distinct sweeps over
// the cluster and checks the merged progress view adds up — and that
// every shard participates (the ring actually shards).
func TestClusterProgressAcrossShards(t *testing.T) {
	engines := make([]sched.Engine, 3)
	for i := range engines {
		engines[i] = staticEngine(t, tinyOptions(), tinyLoop)
	}
	c := startCluster(t, engines)

	const jobs = 8
	keys := make([]string, 0, jobs)
	for seed := 0; seed < jobs; seed++ {
		req := sched.Request{Kernels: []string{"alpha"}, Configs: []string{"baseline"}, Seed: int64(100 + seed)}
		code, body := httpPost(t, c.url()+"/v1/sweeps", reqBody(t, req))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed=%d: %d: %s", seed, code, body)
		}
		var snap sched.Snapshot
		json.Unmarshal(body, &snap)
		keys = append(keys, snap.ID)
	}
	for _, key := range keys {
		pollReport(t, c.url(), key)
	}

	code, body, _ := httpGet(t, c.url()+"/v1/progress")
	if code != http.StatusOK {
		t.Fatalf("progress = %d", code)
	}
	var cp sched.Progress
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.JobsDone != jobs {
		t.Errorf("cluster jobs_done = %d, want %d", cp.JobsDone, jobs)
	}
	if cp.Runs.Done != jobs { // 1 kernel × 1 config each
		t.Errorf("cluster runs done = %d, want %d", cp.Runs.Done, jobs)
	}
	if cp.Runs.Reports != jobs {
		t.Errorf("cluster stored reports = %d, want %d", cp.Runs.Reports, jobs)
	}
	if len(cp.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(cp.Shards))
	}
	for _, s := range cp.Shards {
		if s.State != sched.ShardReady {
			t.Errorf("shard %s state = %s, want ready", s.Addr, s.State)
		}
	}
	// 8 distinct keys over 64 vnodes × 3 shards: it is vanishingly
	// unlikely (and with these fixed seeds, deterministic) that one
	// shard got everything; assert at least two shards own work.
	owners := map[string]bool{}
	for _, key := range keys {
		owners[c.rt.ring.Owner(key)] = true
	}
	if len(owners) < 2 {
		t.Errorf("all %d jobs landed on one shard; ring not spreading", jobs)
	}
}
