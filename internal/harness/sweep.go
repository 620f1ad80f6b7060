package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"spear/internal/cpu"
	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/obs"
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
	c.Trace, c.Events, c.PTextOverride, c.Perf = nil, nil, nil, nil
	return journal.Hash(
		"kernel="+p.Kernel.Name,
		fmt.Sprintf("compiler=%+v", s.Opts.Compiler),
		fmt.Sprintf("config=%+v", c),
		fmt.Sprintf("seed=%d", s.Opts.Seed),
	)
}

// SweepJournal couples a sweep to its write-ahead journal directory.
type SweepJournal struct {
	w      *journal.Writer
	state  *journal.State
	repair *journal.RepairStats
}

// SweepJournalConfig tunes how a sweep's journal is opened. The zero
// value selects the real filesystem with no telemetry.
type SweepJournalConfig struct {
	// FS is the filesystem the journal lives on (nil = the real one).
	// Torture tests substitute an iofault.Faulty.
	FS iofault.FS
	// Obs receives storage-health events (io-retry, io-backoff,
	// quarantine, io-repair) alongside the pipeline telemetry, so degraded
	// storage shows up in the same traces as the runs it slowed.
	Obs *obs.Recorder
	// Log receives one human-readable line per storage-health event.
	Log io.Writer
	// Perf, when non-nil, receives the journal's I/O metrics (commit and
	// fsync wall time, commits, bytes) — typically the same registry as
	// Options.Perf so one snapshot covers simulation and storage.
	Perf *perf.Registry
}

// events builds the journal.EventFunc bridging storage-health events to
// the recorder and log. Journal events can fire from the writer
// goroutine while obs.Recorder is single-threaded, so the bridge owns a
// mutex and flushes per event (these are rare; latency beats batching).
func (c SweepJournalConfig) events() journal.EventFunc {
	if c.Obs == nil && c.Log == nil {
		return nil
	}
	var mu sync.Mutex
	return func(e journal.Event) {
		mu.Lock()
		defer mu.Unlock()
		if c.Log != nil {
			fmt.Fprintf(c.Log, "%s\n", e)
		}
		if c.Obs == nil {
			return
		}
		ev := obs.Event{Text: e.Path}
		if e.Err != nil {
			ev.Text = e.Path + ": " + e.Err.Error()
		}
		switch e.Kind {
		case journal.EventCommitRetry:
			ev.Kind, ev.Arg = obs.KindIORetry, uint64(e.Attempt)
		case journal.EventNospcBackoff:
			ev.Kind, ev.Arg = obs.KindIOBackoff, uint64(e.Attempt)
		case journal.EventQuarantine:
			ev.Kind, ev.Arg = obs.KindQuarantine, uint64(e.Records)
		case journal.EventRepair, journal.EventCompact:
			ev.Kind, ev.Arg = obs.KindIORepair, uint64(e.Records)
		default:
			return
		}
		if c.Obs.Active(0) {
			c.Obs.Emit(ev)
			c.Obs.Flush()
		}
	}
}

// OpenSweepJournal opens the journal in dir with default settings. See
// OpenSweepJournalConfig.
func OpenSweepJournal(dir string, resume bool) (*SweepJournal, error) {
	return OpenSweepJournalConfig(dir, resume, SweepJournalConfig{})
}

// OpenSweepJournalConfig opens the journal in dir. With resume, the
// journal first self-heals — corrupt records are quarantined to the
// sidecar and a torn final record is trimmed — then the survivors are
// replayed and completed runs are served from them; quarantined and torn
// runs simply re-execute, so a damaged journal is degraded, never fatal.
// Without resume any existing journal is discarded and the sweep starts
// fresh.
func OpenSweepJournalConfig(dir string, resume bool, cfg SweepJournalConfig) (*SweepJournal, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = iofault.OS()
	}
	events := cfg.events()
	j := &SweepJournal{state: journal.Replay(nil, false), repair: &journal.RepairStats{}}
	if resume {
		var err error
		j.repair, err = journal.Repair(fsys, dir, events)
		if err != nil {
			return nil, err
		}
		j.state, err = journal.LoadFS(fsys, dir)
		if err != nil {
			return nil, err
		}
	}
	w, err := journal.OpenConfig(dir, !resume, journal.Config{FS: fsys, Events: events, Perf: cfg.Perf})
	if err != nil {
		return nil, err
	}
	j.w = w
	return j, nil
}

// Close flushes and closes the journal file.
func (j *SweepJournal) Close() error { return j.w.Close() }

// Replayed reports how many terminal records the resumed journal
// contributed (for progress logging) and whether its tail was torn —
// either still in the replayed state or already trimmed by the repair
// pass that ran before replay.
func (j *SweepJournal) Replayed() (terminal int, torn bool) {
	return len(j.state.Terminal), j.state.Torn || j.repair.TornTrimmed
}

// Quarantined reports how many corrupt records the resume path moved to
// the quarantine sidecar (or skipped); their runs re-execute.
func (j *SweepJournal) Quarantined() int {
	return j.state.Quarantined + j.repair.Quarantined
}

// SweepReportContext is SweepReport with cancellation and an optional
// write-ahead journal (nil runs un-journaled). Each pair runs once; a
// failure becomes an error row, and cancellation marks the report
// interrupted instead of discarding completed work.
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
	defer s.Opts.Perf.Span("harness.sweep").Start().End()
	rep := &Report{Experiment: experiment}
	for _, cfg := range cfgs {
		rep.Machines = append(rep.Machines, cfg.Name)
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
			tasks = append(tasks, task{p: p, cfg: cfg, idx: len(tasks)})
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

// sweepOne produces the report row for one (kernel, config) pair: from
// the replayed journal when resuming, otherwise by running the
// simulation between a started record and a terminal record.
func (s *Suite) sweepOne(ctx context.Context, p *Prepared, cfg cpu.Config, j *SweepJournal) ReportRow {
	row := ReportRow{Kernel: p.Kernel.Name, Config: cfg.Name}
	key := s.runKey(p, cfg)
	if j != nil {
		if rec, ok := j.state.Terminal[key]; ok {
			if err := replayRecord(rec, &row); err == nil {
				s.seedCache(key, &row)
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
	o := s.runOutcomeFor(ctx, p, cfg, key)
	if interrupted(o.err) {
		// No terminal record: the run stays in flight in the journal and
		// re-executes on resume.
		row.Skipped = SkipInterrupted
		return row
	}
	if o.err == nil {
		row.Result = o.res
	} else {
		row.Error = o.err.Error()
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

// seedCache installs a journal-replayed outcome into the suite's run
// memo so figure experiments sharing the pair reuse it instead of
// re-simulating. A replayed skip becomes a plain error.
func (s *Suite) seedCache(key string, row *ReportRow) {
	o := runOutcome{res: row.Result}
	switch {
	case row.Error != "":
		o.err = errors.New(row.Error)
	case row.Skipped != "":
		o.err = errors.New(row.Skipped)
	}
	s.mu.Lock()
	if _, ok := s.cache[key]; !ok {
		s.cache[key] = o
	}
	s.mu.Unlock()
}
