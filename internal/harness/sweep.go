package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"spear/internal/cpu"
	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/perf"
)

// Crash-safe sweeps: SweepReportContext couples the sweep to a
// write-ahead run journal. Each (kernel, compiler options, machine
// config, seed) is keyed by a deterministic content hash; a "started"
// record is fsync'd before the run and a terminal record — done with the
// serialized result or failed with the error — after it. Because
// cpu.Result survives its JSON round trip bit-exactly, a resumed sweep
// replays completed runs from the journal and converges to a report
// byte-identical to an uninterrupted sweep's.

// SkipInterrupted is the typed skip reason stamped on rows whose runs
// had not finished when the sweep was cancelled. Interrupted rows are
// never journaled as terminal, so resuming re-executes exactly them.
const SkipInterrupted = "sweep interrupted before this run completed"

// runKey derives the deterministic content hash identifying one run:
// the kernel, the full compiler options, the machine configuration
// (minus its non-semantic hooks), and the sweep seed. Any change to an
// ingredient changes the key, so a journal can never resume a run under
// different conditions.
func (s *Suite) runKey(p *Prepared, cfg cpu.Config) string {
	c := cfg
	// Hooks, fault-injection overrides, and the perf registry are
	// process-local state, not part of the machine's identity (and funcs
	// or pointers render as addresses).
	c.Events, c.PTextOverride, c.Perf = nil, nil, nil
	return journal.Hash(
		"kernel="+p.Kernel.Name,
		fmt.Sprintf("compiler=%+v", s.Opts.Compiler),
		fmt.Sprintf("config=%+v", c),
		fmt.Sprintf("seed=%d", s.Opts.Seed),
	)
}

// SweepJournal couples a sweep to its write-ahead journal directory.
type SweepJournal struct {
	w     *journal.Writer
	state *journal.State
}

// SweepJournalConfig tunes how a sweep's journal is opened. The zero
// value selects the real filesystem with no telemetry.
type SweepJournalConfig struct {
	// FS is the filesystem the journal lives on (nil = the real one).
	// Torture tests substitute an iofault.Faulty.
	FS iofault.FS
	// Perf, when non-nil, receives the journal's I/O metrics (commit and
	// fsync wall time, commits, bytes, commit retries, ENOSPC backoffs) —
	// typically the same registry as Options.Perf so one snapshot covers
	// simulation and storage.
	Perf *perf.Registry
}

// OpenSweepJournal opens the journal in dir with default settings. See
// OpenSweepJournalConfig.
func OpenSweepJournal(dir string, resume bool) (*SweepJournal, error) {
	return OpenSweepJournalConfig(dir, resume, SweepJournalConfig{})
}

// OpenSweepJournalConfig opens the journal in dir. With resume, one
// journal.Repair pass self-heals it — corrupt records are quarantined to
// the sidecar and a torn final record is trimmed — and replays the
// survivors, from which completed runs are served; quarantined and torn
// runs simply re-execute, so a damaged journal is degraded, never fatal.
// Without resume any existing journal is discarded and the sweep starts
// fresh.
func OpenSweepJournalConfig(dir string, resume bool, cfg SweepJournalConfig) (*SweepJournal, error) {
	jcfg := journal.Config{FS: cfg.FS, Perf: cfg.Perf}
	if resume {
		st, w, err := journal.Resume(dir, jcfg)
		if err != nil {
			return nil, err
		}
		return &SweepJournal{state: st, w: w}, nil
	}
	w, err := journal.OpenConfig(dir, true, jcfg)
	if err != nil {
		return nil, err
	}
	return &SweepJournal{state: journal.Replay(nil, false), w: w}, nil
}

// Close flushes and closes the journal file.
func (j *SweepJournal) Close() error { return j.w.Close() }

// Replayed reports how many terminal records the resumed journal
// contributed (for progress logging) and whether the repair pass trimmed
// a torn tail.
func (j *SweepJournal) Replayed() (terminal int, torn bool) {
	return len(j.state.Terminal), j.state.Torn
}

// Quarantined reports how many corrupt records the resume path moved to
// the quarantine sidecar; their runs re-execute.
func (j *SweepJournal) Quarantined() int { return j.state.Quarantined }

// SweepReportContext simulates every prepared kernel under every
// configuration, journaling through j when non-nil (nil runs
// un-journaled), and assembles the report. Each pair runs once; a
// failure becomes an error row, a kernel that failed preparation one
// error row, and cancellation marks the report interrupted instead of
// discarding completed work.
//
// The (kernel, config) pairs execute on a bounded worker pool of
// Options.Parallel goroutines (min 1). Rows are assembled by index into
// the exact kernel-major order the serial engine produced, and every run
// is deterministic given its inputs, so a parallel sweep's report is
// byte-identical to a serial one's — only wall clock changes. Journal
// records from concurrent runs interleave in completion order; Replay
// keys them by content hash, so resume is order-blind. On cancellation
// the pool drains: in-flight workers are preempted cooperatively and
// their rows (plus every never-started row) are stamped SkipInterrupted
// only after all workers have returned, so nothing is still running when
// the report (and the journal) is finalized.
func (s *Suite) SweepReportContext(ctx context.Context, experiment string, cfgs []cpu.Config, j *SweepJournal) *Report {
	return s.sweep(ctx, experiment, []View{{Configs: cfgs}}, j)
}

// SweepViews runs, in one un-journaled pooled sweep, every (kernel,
// config) pair the views read, each pair once however many views share
// it. Rendering each view from the returned report regenerates its
// figure or table.
func (s *Suite) SweepViews(ctx context.Context, experiment string, views []View) *Report {
	return s.sweep(ctx, experiment, views, nil)
}

// sweep is the one grid executor: the report's machines are the union of
// the views' configs in first-seen order (a name identifies a machine),
// and its rows are the pairs some view reads, kernel-major.
func (s *Suite) sweep(ctx context.Context, experiment string, views []View, j *SweepJournal) *Report {
	defer s.Opts.Perf.Span("harness.sweep").Start().End()
	rep := &Report{Experiment: experiment}
	var cfgs []cpu.Config
	seen := map[string]bool{}
	for _, v := range views {
		for _, cfg := range v.Configs {
			if !seen[cfg.Name] {
				seen[cfg.Name] = true
				cfgs = append(cfgs, cfg)
				rep.Machines = append(rep.Machines, cfg.Name)
			}
		}
	}
	type task struct {
		p   *Prepared
		cfg cpu.Config
		idx int
	}
	tasks := make([]task, 0, len(s.Prepared)*len(cfgs))
	for _, p := range s.Prepared {
		rep.Kernels = append(rep.Kernels, p.Kernel.Name)
		for _, cfg := range cfgs {
			if readsPair(views, p.Kernel.Name, cfg.Name) {
				tasks = append(tasks, task{p: p, cfg: cfg, idx: len(tasks)})
			}
		}
	}
	rows := make([]ReportRow, len(tasks))
	workers := max(1, s.Opts.Parallel)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	feed := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range feed {
				rows[t.idx] = s.sweepOne(ctx, t.p, t.cfg, j)
			}
		}()
	}
	for _, t := range tasks {
		feed <- t
	}
	close(feed)
	wg.Wait()
	for _, row := range rows {
		if row.Skipped == SkipInterrupted {
			rep.Interrupted = true
		}
	}
	rep.Rows = append(rep.Rows, rows...)
	failed := make([]string, 0, len(s.Failed))
	for name := range s.Failed {
		failed = append(failed, name)
	}
	sort.Strings(failed)
	for _, name := range failed {
		rep.Kernels = append(rep.Kernels, name)
		rep.Rows = append(rep.Rows, ReportRow{Kernel: name, Error: s.Failed[name].Error()})
	}
	rep.Schema = rep.schemaTag()
	return rep
}

// readsPair reports whether some view reads config on kernel.
func readsPair(views []View, kernel, config string) bool {
	for _, v := range views {
		if v.Kernels != nil && !slices.Contains(v.Kernels, kernel) {
			continue
		}
		if slices.ContainsFunc(v.Configs, func(c cpu.Config) bool { return c.Name == config }) {
			return true
		}
	}
	return false
}

// sweepOne produces the report row for one (kernel, config) pair: from
// the replayed journal when resuming, otherwise by running the
// simulation between a started record and a terminal record.
func (s *Suite) sweepOne(ctx context.Context, p *Prepared, cfg cpu.Config, j *SweepJournal) ReportRow {
	row := ReportRow{Kernel: p.Kernel.Name, Config: cfg.Name}
	key := s.runKey(p, cfg)
	if j != nil {
		if rec, ok := j.state.Terminal[key]; ok {
			if err := replayRecord(rec, &row); err == nil {
				return row
			}
			// An unreplayable record (e.g. result JSON from an older,
			// incompatible build) falls through to a fresh run.
			s.Opts.logf("journal %s on %s: replay failed, re-running", p.Kernel.Name, cfg.Name)
		}
	}
	if ctx.Err() != nil {
		row.Skipped = SkipInterrupted
		return row
	}
	if j != nil {
		if err := j.w.Append(journal.Record{Status: journal.StatusStarted, Key: key, Kernel: p.Kernel.Name, Config: cfg.Name}); err != nil {
			s.Opts.logf("journal append failed: %v", err)
		}
	}
	res, err := s.runOnce(ctx, p, cfg, key)
	if interrupted(err) {
		// No terminal record: the run stays in flight in the journal and
		// re-executes on resume.
		row.Skipped = SkipInterrupted
		return row
	}
	if err == nil {
		row.Result = res
	} else {
		row.Error = err.Error()
	}
	if j != nil {
		if err := j.w.Append(terminalRecord(key, &row)); err != nil {
			s.Opts.logf("journal append failed: %v", err)
		}
	}
	return row
}

// terminalRecord builds the journal record that finishes a run. Every
// run is a single attempt.
func terminalRecord(key string, row *ReportRow) journal.Record {
	rec := journal.Record{Key: key, Kernel: row.Kernel, Config: row.Config, Attempts: 1}
	if row.Result != nil {
		rec.Status = journal.StatusDone
		rec.Result, _ = json.Marshal(row.Result)
	} else {
		rec.Status = journal.StatusFailed
		rec.Error = row.Error
	}
	return rec
}

// replayRecord fills a report row from a journaled terminal record.
// Records with more than one attempt and skipped records come from
// older builds, which retried runs and tripped a circuit breaker; they
// still replay, so those journals resume unchanged.
func replayRecord(rec journal.Record, row *ReportRow) error {
	if rec.Attempts > 1 {
		row.Attempts = rec.Attempts
	}
	switch rec.Status {
	case journal.StatusDone:
		var res cpu.Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return err
		}
		row.Result = &res
	case journal.StatusFailed:
		row.Error = rec.Error
	case journal.StatusSkipped:
		row.Skipped = rec.Skip
	default:
		return fmt.Errorf("harness: non-terminal journal record %q", rec.Status)
	}
	return nil
}
