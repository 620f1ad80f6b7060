package sched

import (
	"bytes"
	"context"
	"errors"
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
)

// tinyLoop simulates in a few hundred cycles; the scheduler tests run
// many full sweeps and cannot afford real kernel preparation.
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

// staticEngine builds a SuiteEngine whose suites assemble src once per
// requested kernel name, bypassing kernel preparation.
func staticEngine(t *testing.T, base harness.Options, src string) *SuiteEngine {
	t.Helper()
	e := NewSuiteEngine(base)
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

func tinyRequest() Request {
	return Request{Kernels: []string{"alpha", "beta"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 1}
}

func reportBytes(t *testing.T, rep *harness.Report) []byte {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitState polls until the job leaves the live states and returns its
// terminal snapshot.
func waitTerminal(t *testing.T, job *Job) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v (state %s)", job.ID, err, job.Snapshot().State)
	}
	return job.Snapshot()
}

// fakeEngine is a controllable engine for pure admission tests: each
// Sweep signals started, then blocks until release closes or the
// context is cancelled (returning an interrupted report, as the real
// engine does under cancellation).
type fakeEngine struct {
	mu      sync.Mutex
	started chan string
	release chan struct{}
	runs    int
}

func (f *fakeEngine) Sweep(ctx context.Context, req Request, j *harness.SweepJournal) (*harness.Report, error) {
	f.mu.Lock()
	f.runs++
	f.mu.Unlock()
	if f.started != nil {
		f.started <- req.Key()
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return &harness.Report{Experiment: req.experiment(), Interrupted: true}, nil
		}
	}
	return &harness.Report{Experiment: req.experiment()}, nil
}

// TestSubmitRunCoalesce exercises the happy path end to end on a real
// (static) engine: a submitted sweep runs to done, an identical
// resubmission — from a different client with a different deadline —
// coalesces onto the finished job and serves the same report bytes.
func TestSubmitRunCoalesce(t *testing.T) {
	eng := staticEngine(t, tinyOptions(), tinyLoop)
	s := New(eng, Config{Workers: 1, Log: nil})
	defer s.Close()

	job, coalesced, err := s.Submit(tinyRequest())
	if err != nil || coalesced {
		t.Fatalf("Submit = %v, coalesced=%v", err, coalesced)
	}
	snap := waitTerminal(t, job)
	if snap.State != JobDone {
		t.Fatalf("state = %s (%s), want done", snap.State, snap.Error)
	}
	rep, _, err := job.Result()
	if err != nil || rep == nil || rep.Interrupted {
		t.Fatalf("Result = %v, %v", rep, err)
	}

	req2 := tinyRequest()
	req2.Client = "other"
	req2.DeadlineMS = 60_000
	again, coalesced, err := s.Submit(req2)
	if err != nil || !coalesced {
		t.Fatalf("resubmit: err=%v coalesced=%v, want coalesce onto done job", err, coalesced)
	}
	if again != job {
		t.Error("resubmission returned a different job for the identical request")
	}
	if again.Snapshot().Deduped != 1 {
		t.Errorf("deduped = %d, want 1", again.Snapshot().Deduped)
	}

	// A different seed is different work: new job.
	req3 := tinyRequest()
	req3.Seed = 2
	other, coalesced, err := s.Submit(req3)
	if err != nil || coalesced {
		t.Fatalf("different-seed submit: err=%v coalesced=%v", err, coalesced)
	}
	if other == job {
		t.Error("different seed coalesced onto the same job")
	}
	waitTerminal(t, other)

	if got := len(s.Jobs()); got != 2 {
		t.Errorf("Jobs() lists %d jobs, want 2", got)
	}
}

// TestQueueFullShedsTyped fills the bounded queue and asserts the next
// submission is shed with a typed QueueFullError carrying a positive
// Retry-After — and that nothing about the rejection corrupts state:
// the queued jobs still run to completion afterwards.
func TestQueueFullShedsTyped(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	running := tinyRequest() // occupies the worker
	queued := tinyRequest()
	queued.Seed = 2 // occupies the queue slot
	shedded := tinyRequest()
	shedded.Seed = 3

	j1, _, err := s.Submit(running)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is actually running so j2 must queue.
	for j1.Snapshot().State != JobRunning {
		time.Sleep(time.Millisecond)
	}
	j2, _, err := s.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = s.Submit(shedded)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("overflow submit: err = %v, want *QueueFullError", err)
	}
	if qf.Depth != 1 || qf.RetryAfter <= 0 {
		t.Errorf("QueueFullError = %+v, want depth 1 and positive RetryAfter", qf)
	}
	if RetryAfterOf(err) != qf.RetryAfter {
		t.Errorf("RetryAfterOf = %v, want %v", RetryAfterOf(err), qf.RetryAfter)
	}

	// Coalescing onto live jobs bypasses the full queue: same request is
	// not new work.
	if _, coalesced, err := s.Submit(queued); err != nil || !coalesced {
		t.Errorf("coalesce while queue full: err=%v coalesced=%v", err, coalesced)
	}

	close(eng.release)
	if st := waitTerminal(t, j1).State; st != JobDone {
		t.Errorf("running job ended %s, want done", st)
	}
	if st := waitTerminal(t, j2).State; st != JobDone {
		t.Errorf("queued job ended %s, want done", st)
	}
}

// TestClientCapShedsTyped caps a client at one live job and asserts the
// second is rejected with the typed per-client error while another
// client is still admitted.
func TestClientCapShedsTyped(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{Workers: 1, QueueDepth: 8, PerClient: 1})
	defer s.Close()

	first := tinyRequest()
	first.Client = "alice"
	if _, _, err := s.Submit(first); err != nil {
		t.Fatal(err)
	}

	second := tinyRequest()
	second.Client = "alice"
	second.Seed = 2
	_, _, err := s.Submit(second)
	var cl *ClientLimitError
	if !errors.As(err, &cl) {
		t.Fatalf("over-cap submit: err = %v, want *ClientLimitError", err)
	}
	if cl.Client != "alice" || cl.Limit != 1 || cl.RetryAfter <= 0 {
		t.Errorf("ClientLimitError = %+v", cl)
	}

	third := tinyRequest()
	third.Client = "bob"
	third.Seed = 2
	if _, _, err := s.Submit(third); err != nil {
		t.Errorf("other client rejected: %v", err)
	}
	close(eng.release)
}

// TestValidationRejectsBadRequest asserts unknown configs are rejected
// at admission with ErrBadRequest, before any job state is created.
func TestValidationRejectsBadRequest(t *testing.T) {
	s := New(staticEngine(t, tinyOptions(), tinyLoop), Config{})
	defer s.Close()
	req := tinyRequest()
	req.Configs = []string{"warp-drive"}
	if _, _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if len(s.Jobs()) != 0 {
		t.Error("rejected submission left a job behind")
	}
}

// TestDrainTwoPhase exercises the graceful path: draining stops
// admission with a typed 503-shaped error, sheds the queued job with
// the typed reason, lets the running job finish, and Drain returns nil.
func TestDrainTwoPhase(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{Workers: 1, QueueDepth: 4})
	defer s.Close()

	runningReq := tinyRequest()
	queuedReq := tinyRequest()
	queuedReq.Seed = 2
	j1, _, err := s.Submit(runningReq)
	if err != nil {
		t.Fatal(err)
	}
	for j1.Snapshot().State != JobRunning {
		time.Sleep(time.Millisecond)
	}
	j2, _, err := s.Submit(queuedReq)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Shedding the queue is phase one — observable before drain returns.
	snap := waitTerminal(t, j2)
	if snap.State != JobShed || !strings.Contains(snap.Error, "shed") {
		t.Fatalf("queued job: state=%s err=%q, want shed with typed reason", snap.State, snap.Error)
	}
	if !s.Draining() {
		t.Error("Draining() = false during drain")
	}
	late := tinyRequest()
	late.Seed = 3
	_, _, err = s.Submit(late)
	var dr *DrainingError
	if !errors.As(err, &dr) || dr.RetryAfter <= 0 {
		t.Fatalf("submit during drain: err = %v, want *DrainingError with RetryAfter", err)
	}

	close(eng.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (running job finished in grace)", err)
	}
	if st := j1.Snapshot().State; st != JobDone {
		t.Errorf("running job ended %s, want done", st)
	}
}

// TestDrainTimeoutPreempts gives the drain no grace: the running job is
// preempted, classified interrupted (not failed), and Drain reports
// ErrDrainTimeout so speard can exit with the partial code.
func TestDrainTimeoutPreempts(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})} // never released
	s := New(eng, Config{Workers: 1})
	defer s.Close()

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	for j.Snapshot().State != JobRunning {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Drain = %v, want ErrDrainTimeout", err)
	}
	snap := j.Snapshot()
	if snap.State != JobInterrupted {
		t.Fatalf("preempted job state = %s (%s), want interrupted", snap.State, snap.Error)
	}
	if _, _, jerr := j.Result(); !errors.Is(jerr, ErrInterrupted) {
		t.Errorf("job error = %v, want ErrInterrupted", jerr)
	}
}

// TestKillResumeByteIdentical is the scheduler-level crash-recovery
// criterion: a job killed mid-sweep leaves only its fsync'd journal; a
// new scheduler over the same data dir, given the identical request,
// resumes from that journal and converges to a report byte-identical to
// an uninterrupted run's.
func TestKillResumeByteIdentical(t *testing.T) {
	req := tinyRequest()

	// Clean reference: same engine options, no journal, no faults.
	clean, _, err := Exec(context.Background(), staticEngine(t, tinyOptions(), tinyLoop), req, JournalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := reportBytes(t, clean)

	dataDir := t.TempDir()

	// First incarnation: the third run blocks until the kill lands.
	reached := make(chan struct{})
	release := make(chan struct{})
	opts := tinyOptions()
	runs := 0
	var once sync.Once
	opts.FaultHook = func(kernel, config string) error {
		if runs++; runs == 3 {
			once.Do(func() { close(reached) })
			<-release
		}
		return nil
	}
	s1 := New(staticEngine(t, opts, tinyLoop), Config{Workers: 1, DataDir: dataDir})
	job, _, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	s1.Kill() // SIGKILL stand-in: cancel everything, no grace
	close(release)
	snap := waitTerminal(t, job)
	if snap.State != JobInterrupted {
		t.Fatalf("killed job state = %s (%s), want interrupted", snap.State, snap.Error)
	}
	s1.Close()

	// The journal survived the "crash"; nothing else did.
	if _, err := os.Stat(filepath.Join(s1.JournalDir(req), journal.FileName)); err != nil {
		t.Fatalf("journal missing after kill: %v", err)
	}

	// Second incarnation: fresh scheduler and engine over the same data
	// dir. The identical request resumes and converges.
	s2 := New(staticEngine(t, tinyOptions(), tinyLoop), Config{Workers: 1, DataDir: dataDir})
	defer s2.Close()
	job2, coalesced, err := s2.Submit(req)
	if err != nil || coalesced {
		t.Fatalf("resubmit after restart: err=%v coalesced=%v", err, coalesced)
	}
	snap2 := waitTerminal(t, job2)
	if snap2.State != JobDone {
		t.Fatalf("resumed job state = %s (%s), want done", snap2.State, snap2.Error)
	}
	if snap2.Replayed == 0 {
		t.Error("resumed job replayed nothing; it should have served completed runs from the journal")
	}
	rep2, stats2, err := job2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep2); !bytes.Equal(got, cleanBytes) {
		t.Errorf("resumed report differs from clean reference:\nclean:\n%s\nresumed:\n%s", cleanBytes, got)
	}
	if stats2.Replayed < 2 {
		t.Errorf("stats.Replayed = %d, want >= 2 (the runs completed before the kill)", stats2.Replayed)
	}
}

// TestResubmitInterruptedReenqueues asserts a terminal-but-unfinished
// job (interrupted) is re-enqueued by a later identical submission on
// the SAME scheduler — recovery does not require a restart.
func TestResubmitInterruptedReenqueues(t *testing.T) {
	dataDir := t.TempDir()
	req := tinyRequest()
	req.DeadlineMS = 1 // expires immediately: first attempt interrupts

	opts := tinyOptions()
	slow := opts
	slow.FaultHook = func(kernel, config string) error {
		time.Sleep(5 * time.Millisecond) // let the 1ms deadline lapse
		return nil
	}
	s := New(staticEngine(t, slow, tinyLoop), Config{Workers: 1, DataDir: dataDir})
	defer s.Close()

	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job).State; st != JobInterrupted {
		t.Fatalf("deadline job state = %s, want interrupted", st)
	}

	// Same request, workable deadline: re-enqueued (not coalesced), runs
	// to done. Same ID — the request identity ignores the deadline.
	req2 := req
	req2.DeadlineMS = 60_000
	job2, coalesced, err := s.Submit(req2)
	if err != nil || coalesced {
		t.Fatalf("resubmit: err=%v coalesced=%v, want fresh enqueue", err, coalesced)
	}
	if job2.ID != job.ID {
		t.Errorf("resubmission changed job ID: %s vs %s", job2.ID, job.ID)
	}
	if st := waitTerminal(t, job2).State; st != JobDone {
		t.Fatalf("re-enqueued job state = %s, want done", st)
	}
}

// TestProgressAggregates sanity-checks the scheduler-wide progress view
// after a completed journaled job: job counts and run-level terminals.
func TestProgressAggregates(t *testing.T) {
	s := New(staticEngine(t, tinyOptions(), tinyLoop), Config{Workers: 1, DataDir: t.TempDir()})
	defer s.Close()
	job, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)

	p := s.Progress()
	if p.JobsDone != 1 {
		t.Errorf("JobsDone = %d, want 1", p.JobsDone)
	}
	// 2 kernels x 2 configs = 4 terminal runs in the journal.
	if p.Runs.Done != 4 {
		t.Errorf("Runs.Done = %d, want 4", p.Runs.Done)
	}
	if p.Runs.Terminal() != 4 || len(p.Runs.InFlight) != 0 {
		t.Errorf("Runs = %+v, want 4 terminal and none in flight", p.Runs)
	}
}
