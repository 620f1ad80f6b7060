// Command spearbench regenerates the paper's evaluation: Table 1, Figure 6,
// Table 3, Figure 7, Figure 8, and Figure 9.
//
// Usage:
//
//	spearbench [-experiment all|table1|fig6|table3|fig7|fig8|fig9|faults]
//	           [-kernels mcf,art,...] [-parallel N] [-seed N] [-v]
//	spearbench -json [-kernels mcf,art] > report.json
//	spearbench -csv  [-kernels mcf,art] > report.csv
//	spearbench -json -journal sweep.journal > report.json
//	spearbench -json -journal sweep.journal -resume > report.json
//	spearbench -fsck -journal sweep.journal
//	spearbench -json -autoprofile profiles/ > report.json
//	spearbench -json -debug-addr localhost:6060 -journal sweep.journal > report.json
//
// With -json or -csv the bench instead sweeps every kernel across the five
// machine models and emits one machine-readable report on stdout (schema
// spear-report/1, or /2 when reliability fields are present); render it
// with spearstat. -cpuprofile and -memprofile write pprof profiles of the
// sweep itself.
//
// Performance observability (sweep mode): -autoprofile re-runs the
// sweep's slowest pair under the CPU profiler into a directory;
// -debug-addr serves /debug/pprof/ and /metrics live. Either attaches
// the perf registry, which also stamps Result.Timing onto every row —
// perf-enabled reports carry host timing and so are not
// byte-reproducible across runs. spear-bench/1 performance documents
// come from the repository benchmark (bash bench/run.sh --out FILE);
// spearstat -bench compares two.
//
// Sweeps execute their (kernel, machine) pairs on a bounded worker pool
// of -parallel goroutines (default GOMAXPROCS). The report's rows keep
// the exact serial order regardless of completion order, and every
// simulation is deterministic, so a parallel sweep's JSON/CSV output is
// byte-identical to a serial (-parallel 1) sweep's — only wall clock
// changes. Journal records interleave in completion order; resume keys
// them by content hash, so -journal/-resume compose with -parallel.
//
// Crash safety: -journal <dir> write-ahead-journals every run (fsync'd,
// checksummed records), and -resume replays a previous journal —
// completed runs are served from it, in-flight ones re-execute, corrupt
// records are quarantined to a sidecar and their runs re-execute — so a
// sweep killed at any point, even on degraded storage, converges to the
// exact report an uninterrupted sweep produces.
// SIGINT/SIGTERM cancel gracefully: in-flight simulations are preempted
// within a bounded cycle count, the journal is flushed, and a partial
// report marked "interrupted" is still written; a second signal forces an
// immediate exit.
//
// Journal maintenance: -fsck walks the journal and reports per-record
// integrity without modifying anything. A -resume over a damaged journal
// is what heals it.
//
// Exit codes:
//
//	0  complete — every requested run finished (errors included as rows)
//	3  partial  — a sweep, figure, ablate or faults run was interrupted;
//	             its output is partial (a -journal sweep resumes with -resume)
//	5  damaged  — -fsck found torn or corrupt journal records
//	1  hard failure — bad flags, unknown kernel, I/O errors, ...
//
// Running everything takes a few minutes; use -kernels to restrict the set.
// Every figure and table is a view of one sweep report: the selected
// experiments' (kernel, machine) pairs run once, in one pooled sweep, and
// each experiment renders from the result. Sweeps run in partial-results
// mode: a failing (kernel, machine) pair renders as a per-row error
// instead of aborting the experiment, kernels that fail to prepare are
// reported on stderr and render as error rows, and each run executes
// once: a failure, including a watchdog expiry, is one error row. An
// interrupted figure, ablate or faults run prints its tables with the
// unfinished runs marked skipped and exits 3. The ablations are one
// pooled sweep too, re-slicing each prepared kernel per slicer setting.
//
// The faults experiment injects every fault class (corrupt slice masks,
// bogus trigger PCs, truncated live-in sets, flipped opcode bits in the
// P-thread Table image) into every kernel and verifies the containment
// invariant: the main thread's final state must match the functional
// emulator's under any p-thread fault.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"spear/internal/cpu"
	"spear/internal/exitcode"
	"spear/internal/harness"
	"spear/internal/journal"
	"spear/internal/perf"
	"spear/internal/sched"
	"spear/internal/workloads"
)

// Exit codes (documented in the package comment and -h output; the
// numbers live in the shared internal/exitcode table).
const (
	exitOK      = exitcode.OK
	exitErr     = exitcode.Err
	exitPartial = exitcode.Partial
	exitDamaged = exitcode.FsckDamaged
)

// errPartial marks a gracefully interrupted sweep or figure run: the
// partial report or tables were written and the process exits with code 3.
var errPartial = errors.New("interrupted; output is partial")

// errDamaged marks an -fsck walk that found torn or corrupt records: the
// report was printed and the process exits with code 5.
var errDamaged = errors.New("journal damaged; resume quarantines and re-executes the damaged runs")

func main() {
	experiment := flag.String("experiment", "all", "table1, fig6, table3, fig7, fig8, fig9, faults, motivation, hybrid, ablate, or all")
	kernels := flag.String("kernels", "", "comma-separated kernel subset (default: all fifteen)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (worker-pool width for sweeps)")
	seed := flag.Int64("seed", 1, "fault-injection seed (faults experiment); also folded into journal run keys")
	verbose := flag.Bool("v", false, "log progress to stderr")
	asJSON := flag.Bool("json", false, "sweep all machines and write a spear-report JSON report to stdout")
	asCSV := flag.Bool("csv", false, "sweep all machines and write a flat CSV report to stdout")
	journalDir := flag.String("journal", "", "write-ahead journal directory for crash-safe sweeps (with -json/-csv)")
	resume := flag.Bool("resume", false, "resume from the journal in -journal: replay completed runs, re-execute in-flight ones")
	fsck := flag.Bool("fsck", false, "verify per-record integrity of the journal in -journal and exit (5 on damage)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	autoProf := flag.String("autoprofile", "", "with -json/-csv: after the sweep, re-run its slowest pair under the CPU profiler and write cpu.pprof/heap.pprof into this directory")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof/ and /metrics (JSON registry snapshot) on this address for live inspection")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: spearbench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), `
Exit codes:
  0  complete — every requested run finished (per-run errors included as rows)
  3  partial  — interrupted by SIGINT/SIGTERM; output is partial
               (resume a -json/-csv sweep with -journal <dir> -resume)
  5  damaged  — -fsck found torn or corrupt journal records
  1  hard failure

A first SIGINT/SIGTERM cancels gracefully (journal flushed, partial report
written); a second forces an immediate exit.
`)
	}
	flag.Parse()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "spearbench: interrupt — cancelling in-flight runs and flushing the journal (signal again to force exit)")
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "spearbench: forced exit")
		os.Exit(exitErr)
	}()

	if *fsck {
		if err := runFsck(*journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "spearbench:", err)
			if errors.Is(err, errDamaged) {
				os.Exit(exitDamaged)
			}
			os.Exit(exitErr)
		}
		os.Exit(exitOK)
	}

	err := perf.Profiled("spearbench", *cpuProfile, *memProfile, func() error {
		return run(ctx, runOptions{
			experiment: *experiment, kernels: *kernels, parallel: *parallel, seed: *seed,
			verbose: *verbose, asJSON: *asJSON, asCSV: *asCSV,
			journalDir: *journalDir, resume: *resume,
			autoProfile: *autoProf, debugAddr: *debugAddr,
		})
	})
	switch {
	case err == nil:
		os.Exit(exitOK)
	case errors.Is(err, errPartial), errors.Is(err, cpu.ErrInterrupted), errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "spearbench:", err)
		os.Exit(exitPartial)
	default:
		fmt.Fprintln(os.Stderr, "spearbench:", err)
		os.Exit(exitErr)
	}
}

// runFsck walks the journal in dir (-fsck) without building a kernel
// suite.
func runFsck(dir string) error {
	if dir == "" {
		return fmt.Errorf("-fsck requires -journal <dir>")
	}
	rep, err := journal.Fsck(nil, dir)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if !rep.Clean() {
		return errDamaged
	}
	return nil
}

// runOptions bundles the flag values run needs.
type runOptions struct {
	experiment  string
	kernels     string
	parallel    int
	seed        int64
	verbose     bool
	asJSON      bool
	asCSV       bool
	journalDir  string
	resume      bool
	autoProfile string
	debugAddr   string
}

func run(ctx context.Context, ro runOptions) error {
	experiment, seed := ro.experiment, ro.seed
	opts := harness.DefaultOptions()
	opts.Parallel = ro.parallel
	opts.Seed = ro.seed
	if ro.verbose {
		opts.Log = os.Stderr
	}
	if ro.kernels != "" {
		for _, name := range strings.Split(ro.kernels, ",") {
			name = strings.TrimSpace(name)
			if _, ok := workloads.ByName(name); !ok {
				return fmt.Errorf("unknown kernel %q (known: %s)", name, strings.Join(workloads.Names(), ", "))
			}
			opts.Kernels = append(opts.Kernels, name)
		}
	}
	if ro.resume && ro.journalDir == "" {
		return fmt.Errorf("-resume requires -journal <dir>")
	}
	if ro.journalDir != "" && !ro.asJSON && !ro.asCSV {
		return fmt.Errorf("-journal applies to sweep mode; add -json or -csv")
	}
	if ro.autoProfile != "" && !ro.asJSON && !ro.asCSV {
		return fmt.Errorf("-autoprofile applies to sweep mode; add -json or -csv")
	}

	// Any perf surface turns the registry on; it is shared by the
	// simulator, the harness spans, the journal, and /metrics.
	var reg *perf.Registry
	if ro.autoProfile != "" || ro.debugAddr != "" {
		reg = perf.NewRegistry()
		opts.Perf = reg
	}
	if ro.debugAddr != "" {
		addr, err := startDebugServer(ro.debugAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spearbench: debug server on http://%s (/debug/pprof/, /metrics)\n", addr)
	}

	out := io.Writer(os.Stdout)
	if experiment == "ablate" && !ro.asJSON && !ro.asCSV {
		// The ablations build their own suite: each kernel once, plus a
		// re-sliced row per slicer setting, all in one pooled sweep. An
		// interrupted run prints its points skipped and exits partial.
		results, err := harness.Ablate(ctx, opts, harness.DefaultAblations()...)
		if err != nil {
			return err
		}
		rendered := make([]string, len(results))
		for i, r := range results {
			rendered[i] = harness.RenderAblation(r)
		}
		fmt.Fprintln(out, strings.Join(rendered, "\n"))
		if slices.ContainsFunc(results, func(r *harness.AblationResult) bool { return r.Interrupted }) {
			return errPartial
		}
		return nil
	}

	suite, err := harness.NewSuiteContext(ctx, opts)
	if err != nil {
		return err
	}
	for name, perr := range suite.Failed {
		fmt.Fprintf(os.Stderr, "spearbench: warning: kernel %s failed to prepare and is skipped: %v\n", name, perr)
	}

	if ro.asJSON || ro.asCSV {
		if ro.asJSON && ro.asCSV {
			return fmt.Errorf("-json and -csv are mutually exclusive")
		}
		// Sweeps execute through the same engine/scheduler code path as
		// the speard server (internal/sched.Exec), so a CLI sweep and a
		// POSTed one are the same computation end to end.
		spec := sched.JournalSpec{Dir: ro.journalDir, Resume: ro.resume, Perf: reg}
		if ro.resume {
			spec.OnOpen = func(js sched.JournalStats) {
				fmt.Fprintf(os.Stderr, "spearbench: resuming: %d completed runs replayed from the journal", js.Replayed)
				if js.Torn {
					fmt.Fprint(os.Stderr, " (torn final record dropped; its run re-executes)")
				}
				if js.Quarantined > 0 {
					fmt.Fprintf(os.Stderr, " (%d corrupt records quarantined; their runs re-execute)", js.Quarantined)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		rep, _, err := sched.Exec(ctx, sched.EngineForSuite(suite), sched.Request{Seed: seed, Experiment: "sweep"}, spec)
		if err != nil {
			return err
		}
		if ro.asJSON {
			err = rep.WriteJSON(out)
		} else {
			err = rep.WriteCSV(out)
		}
		if err != nil {
			return err
		}
		if ro.autoProfile != "" && !rep.Interrupted {
			if err := autoProfile(ctx, suite, rep, ro.autoProfile); err != nil {
				return err
			}
		}
		if rep.Interrupted && ro.journalDir != "" {
			return fmt.Errorf("%w (resume with -journal %s -resume)", errPartial, ro.journalDir)
		}
		if rep.Interrupted {
			return errPartial
		}
		return nil
	}

	// Figure mode: one pooled sweep of every pair the selected views
	// need, each rendered from the same report.
	ran := false
	if experiment == "all" || experiment == "table1" {
		fmt.Fprintln(out, harness.RenderTable1(suite.Table1()))
		ran = true
	}
	var views []harness.View
	for _, v := range harness.Views() {
		if v.Name == experiment || (experiment == "all" && v.Paper) {
			views = append(views, v)
		}
	}
	if len(views) > 0 {
		rep := suite.SweepViews(ctx, experiment, views)
		for _, v := range views {
			fmt.Fprintln(out, v.Render(rep))
		}
		if rep.Interrupted {
			return errPartial
		}
		ran = true
	}
	if experiment == "faults" {
		rows := suite.FaultSuite(ctx, seed)
		fmt.Fprintln(out, harness.RenderFaultSuite(rows))
		if slices.ContainsFunc(rows, func(r harness.FaultRow) bool { return r.Skipped != "" }) {
			return errPartial
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
