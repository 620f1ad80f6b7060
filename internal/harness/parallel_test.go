package harness

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/cpu"
)

// Determinism battery for the parallel sweep engine: a sweep run on a
// worker pool must produce a report byte-identical to the serial
// engine's, with and without a journal, and the whole reliability stack
// (singleflight memo, journal writer, resume) must be safe under
// `go test -race`.

// parallelOptions is tinyOptions at worker-pool width 8.
func parallelOptions() Options {
	opts := tinyOptions()
	opts.Parallel = 8
	return opts
}

// TestParallelSweepByteIdenticalToSerial is the tentpole determinism
// criterion: an un-journaled sweep at Parallel: 8 emits exactly the
// bytes the serial (Parallel: 1) sweep does.
func TestParallelSweepByteIdenticalToSerial(t *testing.T) {
	kernels := []string{"alpha", "beta", "gamma", "delta"}
	cfgs := twoConfigs()

	serial := reportBytes(t, tinySuite(t, tinyOptions(), kernels...).
		SweepReportContext(context.Background(), "sweep", cfgs, nil))
	parallel := reportBytes(t, tinySuite(t, parallelOptions(), kernels...).
		SweepReportContext(context.Background(), "sweep", cfgs, nil))
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel sweep differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestParallelJournaledSweepByteIdenticalToSerial repeats the
// determinism criterion with a journal attached: journal records may
// interleave in any completion order, but the report must not change,
// and both journals must replay to the same set of terminal runs.
func TestParallelJournaledSweepByteIdenticalToSerial(t *testing.T) {
	kernels := []string{"alpha", "beta", "gamma", "delta"}
	cfgs := twoConfigs()

	sweep := func(opts Options) ([]byte, int) {
		dir := t.TempDir()
		s := tinySuite(t, opts, kernels...)
		sj, err := OpenSweepJournal(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		rep := s.SweepReportContext(context.Background(), "sweep", cfgs, sj)
		if err := sj.Close(); err != nil {
			t.Fatal(err)
		}
		// Re-open in resume mode to replay what the sweep journaled.
		rj, err := OpenSweepJournal(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		defer rj.Close()
		terminal, torn := rj.Replayed()
		if torn {
			t.Fatal("journal tail torn without a crash")
		}
		return reportBytes(t, rep), terminal
	}

	serial, serialRuns := sweep(tinyOptions())
	parallel, parallelRuns := sweep(parallelOptions())
	if !bytes.Equal(serial, parallel) {
		t.Errorf("journaled parallel sweep differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if want := len(kernels) * len(twoConfigs()); serialRuns != want || parallelRuns != want {
		t.Errorf("journaled terminal runs: serial %d, parallel %d, want %d both", serialRuns, parallelRuns, want)
	}
}

// TestParallelKillAndResumeByteIdentical extends
// TestKillAndResumeByteIdentical to the worker pool: a Parallel: 8 sweep
// cancelled mid-flight drains its workers, stamps interrupted rows, and
// resumes — still at Parallel: 8 — to a report byte-identical to the
// clean serial sweep's.
func TestParallelKillAndResumeByteIdentical(t *testing.T) {
	kernels := []string{"alpha", "beta", "gamma", "delta"}
	cfgs := twoConfigs()
	total := len(kernels) * len(cfgs)

	clean := reportBytes(t, tinySuite(t, tinyOptions(), kernels...).
		SweepReportContext(context.Background(), "sweep", cfgs, nil))

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := parallelOptions()
	var runs atomic.Int64
	opts.FaultHook = func(kernel, config string) error {
		if runs.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	s := tinySuite(t, opts, kernels...)
	sj, err := OpenSweepJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	partial := s.SweepReportContext(ctx, "sweep", cfgs, sj)
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancelled parallel sweep not marked interrupted")
	}
	var interruptedRows int
	for _, row := range partial.Rows {
		if row.Skipped == SkipInterrupted {
			interruptedRows++
		}
	}
	if interruptedRows == 0 || interruptedRows == total {
		t.Fatalf("interrupted rows = %d of %d, want a strict subset (some runs completed, some were drained)", interruptedRows, total)
	}

	rs := tinySuite(t, parallelOptions(), kernels...)
	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	replayed, torn := rj.Replayed()
	if torn {
		t.Fatal("journal tail torn by graceful cancellation")
	}
	if replayed+interruptedRows != total {
		t.Errorf("journal holds %d terminal runs and the report %d interrupted rows; together they must cover all %d",
			replayed, interruptedRows, total)
	}
	resumed := rs.SweepReportContext(context.Background(), "sweep", cfgs, rj)
	if got := reportBytes(t, resumed); !bytes.Equal(got, clean) {
		t.Errorf("parallel resume differs from the clean serial sweep:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
}

// TestSingleflightDedupsConcurrentRuns is the regression test for the
// check-then-run cache race: many goroutines asking for the same
// (kernel, config) pair must execute the simulation exactly once and all
// observe the one memoized result.
func TestSingleflightDedupsConcurrentRuns(t *testing.T) {
	opts := tinyOptions()
	var executions atomic.Int64
	opts.FaultHook = func(kernel, config string) error {
		executions.Add(1)
		// Hold the leader in the simulation long enough for every other
		// goroutine to reach the singleflight wait.
		time.Sleep(20 * time.Millisecond)
		return nil
	}
	s := tinySuite(t, opts, "tiny")
	cfg := cpu.BaselineConfig()

	const callers = 16
	results := make([]*cpu.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunContext(context.Background(), s.Prepared[0], cfg)
		}(i)
	}
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Errorf("%d concurrent callers executed the simulation %d times, want 1", callers, got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("caller %d received a different result pointer than caller 0", i)
		}
	}
}

// TestSingleflightWaiterSurvivesLeaderCancellation pins the takeover
// path: when the singleflight leader is cancelled, a waiter with a live
// context must re-execute the run itself instead of propagating a
// cancellation it never suffered.
func TestSingleflightWaiterSurvivesLeaderCancellation(t *testing.T) {
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	opts := tinyOptions()
	leaderIn := make(chan struct{})
	var once sync.Once
	var executions atomic.Int64
	opts.FaultHook = func(kernel, config string) error {
		executions.Add(1)
		once.Do(func() {
			close(leaderIn)                  // the waiter may start now
			cancelLeader()                   // ...and the leader dies mid-run
			time.Sleep(5 * time.Millisecond) // let cancellation land
		})
		return nil
	}
	s := tinySuite(t, opts, "tiny")
	cfg := cpu.BaselineConfig()

	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.RunContext(leaderCtx, s.Prepared[0], cfg)
		leaderDone <- err
	}()

	<-leaderIn
	res, err := s.RunContext(context.Background(), s.Prepared[0], cfg)
	if err != nil || res == nil {
		t.Fatalf("waiter with a live context failed after leader cancellation: %v", err)
	}
	if lerr := <-leaderDone; !interrupted(lerr) {
		// The leader may also have finished cleanly if cancellation landed
		// too late; anything else is a real failure.
		if lerr != nil {
			t.Errorf("leader: err = %v, want cooperative interruption or success", lerr)
		}
	}
	if got := executions.Load(); got > 2 {
		t.Errorf("run executed %d times, want at most 2 (leader + takeover)", got)
	}
}
