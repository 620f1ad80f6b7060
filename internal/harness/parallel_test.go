package harness

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"spear/internal/journal"
)

// Determinism battery for the parallel sweep engine: a sweep run on a
// worker pool must produce a report byte-identical to the serial
// engine's, with and without a journal, and the whole reliability stack
// (run memo, journal writer, resume) must be safe under
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
			// Hold the third run and cancel once two runs are journaled
			// terminal. Cancelling earlier can catch runs 1 and 2 before
			// their cycle-0 context poll, interrupting every row; the
			// held run is still interrupted, so the subset stays strict.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st, err := journal.Load(dir); err == nil && len(st.Terminal) >= 2 {
					break
				}
			}
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
