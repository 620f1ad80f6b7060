package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/perf"
	"spear/internal/sched"
)

// Performance observability surfaces (DESIGN.md §13):
//
//   - -autoprofile dir/ re-executes the sweep's slowest run under the
//     CPU profiler and writes cpu.pprof + heap.pprof into dir.
//   - -debug-addr host:port serves /debug/pprof/ and /metrics (a JSON
//     registry snapshot) for live inspection of a long sweep.

// startDebugServer mounts the pprof handlers and the registry snapshot
// on addr and serves them for the life of the process. It returns the
// bound address (useful with ":0").
func startDebugServer(addr string, reg *perf.Registry) (string, error) {
	mux := http.NewServeMux()
	perf.MountPprof(mux)
	mux.Handle("/metrics", perf.Handler(reg))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug server: %w", err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
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
