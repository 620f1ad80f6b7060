package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/sched"
)

// Performance observability surfaces (DESIGN.md §13):
//
//   - -perf-out BENCH_<name>.json captures the sweep as a spear-bench/1
//     baseline document: wall clock, per-stage simulator host time,
//     journal I/O, allocation totals, and committed-instructions/sec
//     throughput, each with the regression threshold spearstat -bench
//     gates on.
//   - -autoprofile dir/ re-executes the sweep's slowest run under the
//     CPU profiler and writes cpu.pprof + heap.pprof into dir.
//   - -debug-addr host:port serves /debug/pprof/ and /metrics (a JSON
//     registry snapshot) for live inspection of a long sweep.

// startDebugServer mounts the pprof handlers and the registry snapshot
// on addr and serves them for the life of the process. It returns the
// bound address (useful with ":0").
func startDebugServer(addr string, reg *perf.Registry) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	mux.Handle("/metrics", perf.Handler(reg))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug server: %w", err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}

// benchStats carries the sweep-level measurements that do not live in
// the registry.
type benchStats struct {
	wall      time.Duration
	allocs    uint64 // heap objects allocated during the sweep
	heapBytes uint64 // bytes allocated during the sweep
}

// sweepMemStats reads the allocation counters; call before and after
// the sweep and subtract.
func sweepMemStats() (mallocs, totalAlloc uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// writeBenchDoc assembles the spear-bench/1 document from the registry
// snapshot, the report, and the sweep-level stats, and writes it to
// path. Thresholds are generous by design — host timing on a shared
// machine is noisy, and the gate is meant to catch real regressions, not
// jitter.
func writeBenchDoc(path string, reg *perf.Registry, rep *harness.Report, st benchStats) error {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	name = strings.TrimPrefix(name, "BENCH_")
	env := perf.CaptureEnv(time.Now().UTC().Format(time.RFC3339),
		"regenerate: go run ./cmd/spearbench "+strings.Join(os.Args[1:], " "))
	b := perf.NewBench(name, env)

	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}

	// Sweep-level wall clock and allocation behaviour.
	b.Add("sweep.wall.ns", "ns", float64(st.wall.Nanoseconds()), perf.LowerIsBetter, 25)
	b.Add("sweep.allocs", "objects", float64(st.allocs), perf.LowerIsBetter, 30)
	b.Add("sweep.heap.bytes", "bytes", float64(st.heapBytes), perf.LowerIsBetter, 30)

	// Simulator totals and per-stage attribution.
	runNs := counters["cpu.run.ns"]
	loopNs := counters["cpu.run.loop.ns"]
	b.Add("cpu.run.ns", "ns", float64(runNs), perf.LowerIsBetter, 25)
	var stageSum uint64
	for name, v := range counters {
		if strings.HasPrefix(name, "cpu.stage.") {
			b.Add(name, "ns", float64(v), perf.LowerIsBetter, 35)
			stageSum += v
		}
	}
	if loopNs > 0 {
		// The acceptance metric: how much of the measured run wall clock
		// the stage buckets explain. Informational (threshold 0) but
		// printed by spearstat so a coverage collapse is visible.
		b.Add("cpu.stage.coverage", "fraction", float64(stageSum)/float64(runNs), perf.HigherIsBetter, 0)
	}

	// Committed-instruction throughput: per simulated run second (the
	// simulator's own speed) and per sweep wall second (end-to-end,
	// including preparation and the pool).
	var instrs uint64
	for _, row := range rep.Rows {
		if row.Result != nil {
			instrs += row.Result.MainCommitted
		}
	}
	if runNs > 0 {
		b.Add("sim.throughput.ips", "instrs/s", float64(instrs)/(float64(runNs)/1e9), perf.HigherIsBetter, 20)
	}
	if st.wall > 0 {
		b.Add("sweep.throughput.ips", "instrs/s", float64(instrs)/st.wall.Seconds(), perf.HigherIsBetter, 20)
	}
	b.Add("cpu.instrs", "instrs", float64(instrs), perf.LowerIsBetter, 0)
	b.Add("cpu.cycles", "cycles", float64(counters["cpu.cycles"]), perf.LowerIsBetter, 0)

	// Journal I/O (zero without -journal; informational either way).
	for _, n := range []string{"journal.commits", "journal.bytes", "journal.write.ns", "journal.fsync.ns"} {
		if v, ok := counters[n]; ok {
			b.Add(n, unitFor(n), float64(v), perf.LowerIsBetter, 0)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func unitFor(name string) string {
	switch {
	case strings.HasSuffix(name, ".ns"):
		return "ns"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	default:
		return "count"
	}
}

// autoProfile re-executes the report's slowest completed run under the
// CPU profiler and writes cpu.pprof and heap.pprof into dir. The rerun
// calls the simulator directly, so the profile contains one clean
// simulation of the pair.
func autoProfile(ctx context.Context, suite *harness.Suite, rep *harness.Report, dir string) error {
	row := rep.SlowestRow()
	if row == nil {
		return fmt.Errorf("autoprofile: no completed runs to profile")
	}
	kernel, config := row.Kernel, row.Config
	dur := time.Duration(row.Result.Timing.WallNanos)
	var prep *harness.Prepared
	for _, p := range suite.Prepared {
		if p.Kernel.Name == kernel {
			prep = p
		}
	}
	cfgs, err := sched.ResolveConfigs([]string{config})
	if prep == nil || err != nil {
		return fmt.Errorf("autoprofile: slowest run %s on %s not in this sweep", kernel, config)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spearbench: autoprofile: re-running slowest pair %s on %s (%v) under the CPU profiler\n", kernel, config, dur.Round(time.Millisecond))

	cpuPath := filepath.Join(dir, "cpu.pprof")
	cf, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		_ = cf.Close()
		return err
	}
	var runErr error
	pprof.Do(ctx, pprof.Labels("kernel", kernel, "config", config, "run", "autoprofile"), func(ctx context.Context) {
		_, runErr = cpu.RunContext(ctx, prep.Ref, cfgs[0])
	})
	pprof.StopCPUProfile()
	if cerr := cf.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return fmt.Errorf("autoprofile: %w", runErr)
	}

	heapPath := filepath.Join(dir, "heap.pprof")
	hf, err := os.Create(heapPath)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(hf); err != nil {
		_ = hf.Close()
		return err
	}
	if err := hf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spearbench: autoprofile: wrote %s and %s\n", cpuPath, heapPath)
	return nil
}
