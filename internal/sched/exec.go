package sched

import (
	"context"
	"errors"
	"fmt"

	"strings"

	"spear/internal/harness"
	"spear/internal/iofault"
	"spear/internal/perf"
)

// JournalSpec says where (and whether) a sweep journals. The zero value
// runs un-journaled, which is how the fast CLI path and pure in-memory
// tests execute.
type JournalSpec struct {
	// Dir is the journal directory ("" = no journal).
	Dir string
	// Resume replays an existing journal in Dir instead of truncating it.
	Resume bool
	// FS is the filesystem the journal lives on (nil = the real one);
	// torture tests inject an iofault.Faulty here.
	FS iofault.FS
	// Perf receives the journal's I/O metrics (commit/fsync wall time,
	// commit retries, ENOSPC backoffs).
	Perf *perf.Registry
	// OnOpen, when non-nil, observes the journal's replay stats after it
	// opens and before the sweep runs (spearbench prints its resume
	// banner here).
	OnOpen func(JournalStats)
}

// JournalStats summarizes what the journal contributed to an Exec call,
// for resume banners and recovery assertions.
type JournalStats struct {
	// Replayed counts terminal records served from the journal instead of
	// re-executed.
	Replayed int
	// Torn reports whether the journal's final record was torn (crash
	// mid-append) and trimmed.
	Torn bool
	// Quarantined counts corrupt records moved to the quarantine sidecar.
	Quarantined int
}

// String renders the non-zero outcomes for a log line ("" when the
// journal contributed nothing): replayed runs, quarantined records and a
// trimmed torn tail.
func (js JournalStats) String() string {
	var parts []string
	if js.Replayed > 0 {
		parts = append(parts, fmt.Sprintf("%d replayed", js.Replayed))
	}
	if js.Quarantined > 0 {
		parts = append(parts, fmt.Sprintf("%d quarantined", js.Quarantined))
	}
	if js.Torn {
		parts = append(parts, "torn tail trimmed")
	}
	return strings.Join(parts, ", ")
}

// Exec is the one code path both spearbench and speard execute sweeps
// through: open (or resume) the journal per spec, run the engine, close
// the journal. The report is returned even when closing the journal
// fails — results beat bookkeeping — with the close error alongside.
func Exec(ctx context.Context, e Engine, req Request, spec JournalSpec) (*harness.Report, JournalStats, error) {
	var stats JournalStats
	var j *harness.SweepJournal
	if spec.Dir != "" {
		var err error
		j, err = harness.OpenSweepJournalConfig(spec.Dir, spec.Resume, harness.SweepJournalConfig{
			FS:   spec.FS,
			Perf: spec.Perf,
		})
		if err != nil {
			return nil, stats, err
		}
		stats.Replayed, stats.Torn = j.Replayed()
		stats.Quarantined = j.Quarantined()
		if spec.OnOpen != nil {
			spec.OnOpen(stats)
		}
	}
	rep, err := e.Sweep(ctx, req, j)
	if j != nil {
		if cerr := j.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	return rep, stats, err
}
