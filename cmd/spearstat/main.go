// Command spearstat renders a machine-readable sweep report (produced by
// spearbench -json) as human-readable tables: a per-pair summary, the
// paper's Figure 6 normalized-IPC table, interval-metric sparklines, and
// the prefetch-usefulness breakdown.
//
// Usage:
//
//	spearbench -json | spearstat
//	spearstat report.json
//	spearstat -top 5 report.json
//	spearstat -journal sweep.journal
//	spearstat -journal sweep.journal -follow
//	spearstat -bench BENCH_baseline.json BENCH_new.json
//
// The Figure 6 table is reproduced digit for digit from the JSON alone
// (float64 values survive the round trip exactly), so `spearbench -json |
// spearstat` matches `spearbench -experiment fig6` without re-simulating.
//
// With -journal, spearstat instead inspects a sweep's write-ahead journal
// and prints a one-line progress summary — runs done/failed/skipped and
// the (kernel, machine) pairs currently in flight on the sweep's worker
// pool. -follow refreshes the line in place every second until
// interrupted, a live progress view of a parallel sweep running in
// another process; a journal that does not exist yet shows a waiting
// line until the sweep creates it.
//
// With -bench, spearstat instead compares two spear-bench/1 documents
// (written by bash bench/run.sh --out) benchstat-style: per-metric old vs
// new values, percentage deltas, and a verdict column driven by the
// regression thresholds stored in the baseline. -bench-threshold N
// overrides every gating threshold with a flat N%; -bench-warn reports
// regressions without failing, for advisory CI lanes.
//
// Journal integrity checks live in spearbench -fsck.
//
// Exit codes: 0 report rendered, 4 benchmark regression, 1 hard failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"spear/internal/exitcode"
	"spear/internal/harness"
	"spear/internal/mem"
	"spear/internal/perf"
	"spear/internal/stats"
)

func main() {
	top := flag.Int("top", 10, "prefetch PCs to list per (kernel, machine) pair")
	journalDir := flag.String("journal", "", "render sweep progress from this write-ahead journal directory instead of a report")
	addr := flag.String("addr", "", "render live progress from a running speard at this address (e.g. http://localhost:8791) instead of a journal directory")
	follow := flag.Bool("follow", false, "with -journal/-addr: refresh the progress line every -interval until interrupted")
	refresh := flag.Duration("interval", time.Second, "refresh interval for -follow")
	bench := flag.Bool("bench", false, "compare two spear-bench/1 documents: spearstat -bench old.json new.json (exit 4 on regression)")
	benchThreshold := flag.Float64("bench-threshold", 0, "with -bench: override every gating regression threshold with this flat percentage")
	benchWarn := flag.Bool("bench-warn", false, "with -bench: report regressions but exit 0 (advisory mode)")
	flag.Parse()

	if *follow && *journalDir == "" && *addr == "" {
		fmt.Fprintln(os.Stderr, "spearstat: -follow requires -journal <dir> or -addr <url>")
		os.Exit(exitcode.Err)
	}
	if *journalDir != "" && *addr != "" {
		fmt.Fprintln(os.Stderr, "spearstat: -journal and -addr are mutually exclusive")
		os.Exit(exitcode.Err)
	}
	if *refresh <= 0 {
		fmt.Fprintln(os.Stderr, "spearstat: -interval must be positive")
		os.Exit(exitcode.Err)
	}
	if *bench {
		regressed, err := runBench(flag.Args(), *benchThreshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spearstat:", err)
			os.Exit(exitcode.Err)
		}
		if regressed > 0 && !*benchWarn {
			os.Exit(exitcode.BenchRegression)
		}
		return
	}
	if *journalDir != "" || *addr != "" {
		interval := time.Duration(0)
		if *follow {
			interval = *refresh
		}
		var err error
		if *addr != "" {
			err = progressAddr(*addr, interval, os.Stdout)
		} else {
			err = progress(*journalDir, interval, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "spearstat:", err)
			os.Exit(exitcode.Err)
		}
		return
	}
	if err := run(flag.Args(), *top, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spearstat:", err)
		os.Exit(exitcode.Err)
	}
}

// runBench loads two spear-bench/1 documents, renders their comparison,
// and returns how many metrics regressed past their threshold. The
// baseline's stored thresholds gate unless overridePct > 0 replaces
// them with a flat percentage.
func runBench(args []string, overridePct float64, out io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("-bench takes exactly two documents: spearstat -bench old.json new.json")
	}
	old, err := perf.ReadBenchFile(args[0])
	if err != nil {
		return 0, err
	}
	new_, err := perf.ReadBenchFile(args[1])
	if err != nil {
		return 0, err
	}
	deltas := perf.Compare(old, new_, overridePct)
	fmt.Fprint(out, perf.RenderComparison(old, new_, deltas))
	regressed := perf.Regressions(deltas)
	if regressed > 0 {
		fmt.Fprintf(out, "\nFAIL: %d metric(s) regressed past threshold\n", regressed)
	}
	return regressed, nil
}

func run(args []string, top int, out io.Writer) error {
	in := io.Reader(os.Stdin)
	switch len(args) {
	case 0:
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one report file (default: stdin)")
	}
	rep, err := harness.ReadReport(in)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, renderSummary(rep))
	if hasMachines(rep, "baseline", "SPEAR-128", "SPEAR-256") {
		fmt.Fprintln(out, harness.RenderFigure6(harness.Figure6(rep)))
	}
	if s := renderIntervals(rep); s != "" {
		fmt.Fprintln(out, s)
	}
	if s := renderPrefetch(rep, top); s != "" {
		fmt.Fprintln(out, s)
	}
	return nil
}

func hasMachines(rep *harness.Report, names ...string) bool {
	have := map[string]bool{}
	for _, m := range rep.Machines {
		have[m] = true
	}
	for _, n := range names {
		if !have[n] {
			return false
		}
	}
	return true
}

// renderSummary tabulates the headline statistics of every (kernel,
// machine) pair, with per-row error notes for failed pairs.
func renderSummary(rep *harness.Report) string {
	t := stats.NewTable("kernel", "machine", "cycles", "IPC", "L1D miss", "triggers", "extracted", "faults")
	prev := ""
	for _, row := range rep.Rows {
		if prev != "" && row.Kernel != prev {
			t.AddSeparator()
		}
		prev = row.Kernel
		if row.Result == nil {
			if row.Skipped != "" {
				t.AddSpanRow(row.Kernel, "SKIPPED: "+row.Skipped)
			} else {
				t.AddSpanRow(row.Kernel, "ERROR: "+row.Error)
			}
			continue
		}
		r := row.Result
		t.AddRow(row.Kernel, row.Config, fmt.Sprint(r.Cycles), r.IPC,
			r.L1D.MissRate(), fmt.Sprint(r.Triggers), fmt.Sprint(r.Extracted),
			fmt.Sprint(r.PFault.Total()))
	}
	title := "Sweep summary"
	if rep.Experiment != "" {
		title += " (" + rep.Experiment + ")"
	}
	if rep.Interrupted {
		title += " — PARTIAL: sweep interrupted; resume with spearbench -journal <dir> -resume"
	}
	return title + "\n" + t.String()
}

// renderIntervals draws one IPC sparkline per pair that carries an
// interval-metric series.
func renderIntervals(rep *harness.Report) string {
	t := stats.NewTable("kernel", "machine", "samples", "IPC p50", "IPC p95", "IPC over time")
	n := 0
	for _, row := range rep.Rows {
		if row.Result == nil || len(row.Result.Intervals) == 0 {
			continue
		}
		n++
		ipc := make([]float64, len(row.Result.Intervals))
		for i, sm := range row.Result.Intervals {
			ipc[i] = sm.IPC
		}
		t.AddRow(row.Kernel, row.Config, fmt.Sprint(len(ipc)),
			stats.Percentile(ipc, 50), stats.Percentile(ipc, 95), stats.Sparkline(ipc))
	}
	if n == 0 {
		return ""
	}
	return "Interval metrics\n" + t.String()
}

// renderPrefetch tabulates the prefetch-usefulness classification: totals
// per pair plus the hottest prefetching PCs.
func renderPrefetch(rep *harness.Report, top int) string {
	t := stats.NewTable("kernel", "machine", "pc", "fills", "timely", "late", "useless", "harmful", "timely %")
	n := 0
	for _, row := range rep.Rows {
		if row.Result == nil || row.Result.Prefetch.Fills == 0 {
			continue
		}
		if n > 0 {
			t.AddSeparator()
		}
		n++
		pf := row.Result.Prefetch
		addClass := func(label string, c mem.PrefetchClass) {
			pct := 0.0
			if c.Fills > 0 {
				pct = 100 * float64(c.Timely) / float64(c.Fills)
			}
			t.AddRow(row.Kernel, row.Config, label, fmt.Sprint(c.Fills),
				fmt.Sprint(c.Timely), fmt.Sprint(c.Late), fmt.Sprint(c.Useless),
				fmt.Sprint(c.Harmful), pct)
		}
		addClass("all", pf.PrefetchClass)
		pcs := append([]mem.PrefetchPC(nil), pf.PerPC...)
		sort.Slice(pcs, func(i, j int) bool { return pcs[i].Fills > pcs[j].Fills })
		if top >= 0 && len(pcs) > top {
			pcs = pcs[:top]
		}
		for _, pc := range pcs {
			addClass(fmt.Sprintf("pc %d", pc.PC), pc.PrefetchClass)
		}
	}
	if n == 0 {
		return ""
	}
	return "Prefetch usefulness\n" + t.String()
}
