package harness

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"spear/internal/cpu"
)

// Machine-readable reporting: a sweep serializes to one Report — every
// (kernel, machine) simulation result plus per-pair errors — which
// round-trips through JSON losslessly (float64 values re-parse to the
// exact same bits), so downstream tooling (spearstat) reproduces the
// harness's text tables digit for digit from the JSON alone.

// ReportSchema identifies the base report wire format; bump it on
// breaking changes so readers can refuse files they do not understand.
// ReportSchemaV2 extends v1 with the reliability fields (interrupted
// sweeps, typed skips, attempt counts). Writers negotiate down: a
// complete sweep that uses none of the v2 fields is tagged — and is
// byte-identical to — a v1 report, so resuming an interrupted sweep
// converges to exactly the spear-report/1 bytes an uninterrupted sweep
// would have produced.
const (
	ReportSchema   = "spear-report/1"
	ReportSchemaV2 = "spear-report/2"
)

// Report is the machine-readable result of one sweep.
type Report struct {
	Schema     string   `json:"schema"`
	Experiment string   `json:"experiment,omitempty"`
	Machines   []string `json:"machines"`
	Kernels    []string `json:"kernels"`
	// Interrupted marks a partial report: the sweep was cancelled
	// (SIGINT/SIGTERM) before every run finished. Rows not reached carry
	// a "skipped" marker; resuming with the journal completes them.
	Interrupted bool        `json:"interrupted,omitempty"`
	Rows        []ReportRow `json:"rows"`
}

// ReportRow is one (kernel, machine) outcome. Exactly one of Result,
// Error, and Skipped is set; a kernel that failed preparation has a
// single row with an empty Config.
type ReportRow struct {
	Kernel string `json:"kernel"`
	Config string `json:"config,omitempty"`
	Error  string `json:"error,omitempty"`
	// Skipped is the typed skip reason: the sweep was interrupted before
	// this run completed (or, replayed from an older journal, a circuit
	// breaker tripped).
	Skipped string `json:"skipped,omitempty"`
	// Attempts is how many attempts the run consumed, recorded only when
	// above 1. Current builds run each pair once; values come only from
	// reports and journals of older builds, which retried runs.
	Attempts int         `json:"attempts,omitempty"`
	Result   *cpu.Result `json:"result,omitempty"`
}

// schemaTag returns the lowest schema version that can represent the
// report: v1 unless a reliability field is in use.
func (r *Report) schemaTag() string {
	if r.Interrupted {
		return ReportSchemaV2
	}
	for i := range r.Rows {
		if r.Rows[i].Skipped != "" || r.Rows[i].Attempts > 1 {
			return ReportSchemaV2
		}
	}
	return ReportSchema
}

// Lookup returns the row for (kernel, config), or nil. A preparation
// failure matches any config so that per-kernel errors surface everywhere
// the kernel is asked for.
func (r *Report) Lookup(kernel, config string) *ReportRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Kernel != kernel {
			continue
		}
		if row.Config == config || (row.Config == "" && row.Error != "") {
			return row
		}
	}
	return nil
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ErrReportSchema marks a report whose schema tag this reader does not
// understand.
var ErrReportSchema = errors.New("harness: unsupported report schema")

// ReadReport decodes a JSON report and checks its schema tag; both the
// v1 format and the v2 reliability extension are accepted.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("harness: decoding report: %w", err)
	}
	if rep.Schema != ReportSchema && rep.Schema != ReportSchemaV2 {
		return nil, fmt.Errorf("%w: %q (want %q or %q)", ErrReportSchema, rep.Schema, ReportSchema, ReportSchemaV2)
	}
	return &rep, nil
}

// csvHeader lists the flat per-row columns of the CSV form.
var csvHeader = []string{
	"kernel", "config", "error", "skipped", "attempts",
	"cycles", "ipc", "main_committed", "p_committed",
	"avg_ifq_occupancy", "branch_ratio", "ipb",
	"l1d_misses_main", "l1d_misses_helper", "l2_miss_rate",
	"triggers", "sessions_done", "sessions_killed", "extracted",
	"prefetch_loads", "stride_prefetches", "pfaults",
	"pf_fills", "pf_timely", "pf_late", "pf_useless", "pf_harmful",
}

// WriteCSV serializes the report as a flat CSV (one line per row; error
// rows keep the identification columns and leave the metrics empty).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range r.Rows {
		attempts := ""
		if row.Attempts > 1 {
			attempts = strconv.Itoa(row.Attempts)
		}
		rec := []string{row.Kernel, row.Config, row.Error, row.Skipped, attempts}
		if res := row.Result; res != nil {
			rec = append(rec,
				u(res.Cycles), f(res.IPC), u(res.MainCommitted), u(res.PCommitted),
				f(res.AvgIFQOccupancy), f(res.BranchRatio), f(res.IPB),
				u(res.MainL1Misses()), u(res.HelperL1Misses()), f(res.L2.MissRate()),
				u(res.Triggers), u(res.SessionsDone), u(res.SessionsKilled), u(res.Extracted),
				u(res.PrefetchLoads), u(res.StridePrefetches), u(res.PFault.Total()),
				u(res.Prefetch.Fills), u(res.Prefetch.Timely), u(res.Prefetch.Late),
				u(res.Prefetch.Useless), u(res.Prefetch.Harmful),
			)
		} else {
			rec = append(rec, make([]string, len(csvHeader)-len(rec))...)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ErrSkipped marks a view entry whose run the report skipped — most often
// because the sweep was interrupted before it completed — as opposed to
// a run that failed.
var ErrSkipped = errors.New("skipped")

// results returns the kernel's results on the named configs, in order,
// or the first error that stands in their place: the row's run (or
// preparation) error, a skip wrapping ErrSkipped, or a missing row.
func (r *Report) results(kernel string, configs ...string) ([]*cpu.Result, error) {
	out := make([]*cpu.Result, len(configs))
	for i, config := range configs {
		row := r.Lookup(kernel, config)
		switch {
		case row == nil || (row.Result == nil && row.Error == "" && row.Skipped == ""):
			return nil, fmt.Errorf("harness: %s: missing configuration results", kernel)
		case row.Error != "":
			return nil, errors.New(row.Error)
		case row.Skipped != "":
			return nil, fmt.Errorf("harness: %s on %s: %w: %s", kernel, config, ErrSkipped, row.Skipped)
		}
		out[i] = row.Result
	}
	return out, nil
}

// SlowestRow returns the completed row whose run took the longest host
// wall time, or nil when no row carries Timing (only sweeps with perf
// observability on record it). spearbench -autoprofile uses it to pick
// the run worth re-executing under the CPU profiler.
func (r *Report) SlowestRow() *ReportRow {
	var slowest *ReportRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Result == nil || row.Result.Timing == nil {
			continue
		}
		if slowest == nil || row.Result.Timing.WallNanos > slowest.Result.Timing.WallNanos {
			slowest = row
		}
	}
	return slowest
}
