// Package sched is the transport-agnostic scheduler between the SPEAR
// experiment engine (internal/harness) and whatever drives it — the
// spearbench CLI and the speard HTTP server both execute sweeps through
// this package's one code path (Exec), so a sweep behaves identically
// whether it was typed at a shell or POSTed to a server.
//
// The split of responsibilities:
//
//   - internal/harness is the pure engine: prepare kernels, run
//     simulations once each, assemble byte-deterministic reports.
//   - sched owns everything about *when and whether* work runs: the
//     content-hash identity of a request, admission control (bounded
//     queue, per-client caps, typed load shedding — never silent drops),
//     per-request deadlines plumbed down to the cycle simulator's
//     cancellation poll, the worker pool, per-job journal directories,
//     and two-phase graceful drain.
//
// Requests are keyed by the same SHA-256 content-hash discipline as the
// run journal, so identical work submitted by any number of clients
// coalesces onto one job, and a job resubmitted after a crash resumes
// from its fsync'd journal and converges to a byte-identical report.
package sched

import (
	"fmt"
	"strings"
	"time"

	"spear/internal/journal"
)

// Request describes one sweep: the unit of work both spearbench and
// speard submit. Its identity (Key) covers only the fields that change
// the work's result — kernels, configs, seed, experiment label. Client
// and Deadline are transport concerns: two clients asking for the same
// sweep under different deadlines are asking for the same bytes, and
// dedup across clients is the whole point of running a server.
type Request struct {
	// Kernels restricts the benchmark set (empty = all fifteen). Order
	// matters: it is the report's row order, hence part of the identity.
	Kernels []string `json:"kernels,omitempty"`
	// Configs names the machine models to sweep (empty = the standard
	// five: baseline, SPEAR-128/256, SPEAR.sf-128/256).
	Configs []string `json:"configs,omitempty"`
	// Seed folds into every run's journal key (see harness.Options.Seed).
	Seed int64 `json:"seed"`
	// Experiment labels the report (default "sweep").
	Experiment string `json:"experiment,omitempty"`

	// DeadlineMS bounds the job's execution wall clock in milliseconds
	// (0 = the scheduler's default). The deadline context is plumbed
	// through the harness down to cpu.RunContext's 64K-cycle poll, so an
	// expired deadline preempts even a mid-run simulation within a
	// bounded cycle count; the interrupted runs stay journaled as
	// in-flight and resume on resubmission.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Client identifies the submitter for per-client admission caps
	// (empty = "anonymous"; speard fills it from the request body or the
	// remote address). Not part of Key: dedup spans clients.
	Client string `json:"client,omitempty"`
}

// experiment returns the report label with the default applied.
func (r Request) experiment() string {
	if r.Experiment == "" {
		return "sweep"
	}
	return r.Experiment
}

// Deadline returns the requested per-job deadline (0 = none requested).
func (r Request) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// ClientKey returns the admission-control identity.
func (r Request) ClientKey() string {
	if r.Client == "" {
		return "anonymous"
	}
	return r.Client
}

// Key derives the deterministic content hash identifying the request:
// the job ID, the dedup key across all clients, and the name of the
// job's journal directory. It deliberately excludes Client and
// DeadlineMS — they shape *how* the work runs, not *what* it computes.
func (r Request) Key() string {
	return journal.Hash(
		"kernels="+strings.Join(r.Kernels, ","),
		"configs="+strings.Join(r.Configs, ","),
		fmt.Sprintf("seed=%d", r.Seed),
		"experiment="+r.experiment(),
	)
}
