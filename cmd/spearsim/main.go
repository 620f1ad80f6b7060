// Command spearsim runs a SPEAR binary (or a named workload) on the
// cycle-level simulator and prints the statistics block: cycles, IPC,
// branch behaviour, cache misses, and SPEAR activity.
//
// Usage:
//
//	spearsim -bin mcf.spear -machine SPEAR-256
//	spearsim -workload mcf -machine baseline
//	spearsim -workload art -machine SPEAR.sf-128 -mem-latency 200 -l2-latency 20
//	spearsim -workload mcf -machine SPEAR-128 -inject corrupt-mask -seed 7
//	spearsim -workload mcf -machine SPEAR-128 -metrics 10000 -events mcf.jsonl
//
// Telemetry: -events streams structured simulator events (fetch, dispatch,
// extract, trigger, issue, commit, flush, squash, fault, session) to a JSONL
// file; -event-cycles bounds the stream to the first N cycles. -trace N
// prints the same stream as text on stdout for the first N cycles; the
// simulator has one event stream, so -trace and -events exclude each
// other (a usage error, exit 1). -metrics N samples
// interval statistics every N cycles and prints the series after the run.
// -cpuprofile/-memprofile write pprof profiles of the simulator itself.
// -perf times the simulator's own pipeline stages (host nanoseconds per
// stage) and prints the attribution table with a coverage percentage.
//
// Machines: baseline, SPEAR-128, SPEAR-256, SPEAR.sf-128, SPEAR.sf-256.
// With -workload, the program is first compiled with the SPEAR compiler on
// the training input (the baseline machine simply ignores the annotations).
//
// Exit codes: 0 success, 1 generic error, 2 validation failure or
// pipeline/oracle divergence, 3 deadlock (MaxCycles exhausted; a pipeline
// state dump is printed to stderr), 4 interrupted (SIGINT/SIGTERM; the
// simulation is preempted within a bounded cycle count — a second signal
// forces an immediate exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spear/internal/cpu"
	"spear/internal/exitcode"
	"spear/internal/harness"
	"spear/internal/mem"
	"spear/internal/obs"
	"spear/internal/perf"
	"spear/internal/prog"
	"spear/internal/stats"
	"spear/internal/workloads"
)

// Exit codes come from the shared table in internal/exitcode so every
// binary in the repo agrees on what each status means.
const (
	exitErr         = exitcode.Err
	exitValidation  = exitcode.Validation
	exitDeadlock    = exitcode.Deadlock
	exitInterrupted = exitcode.Interrupted
)

// options collects the command-line knobs that shape one simulation.
type options struct {
	bin, workload, machine string
	memLat, l2Lat          int
	trace, maxCycles       uint64
	seed                   int64
	inject                 string
	events                 string
	eventCycles            uint64
	metrics                uint64
	perf                   bool
}

func main() {
	var o options
	flag.StringVar(&o.bin, "bin", "", "SPEAR binary to simulate")
	flag.StringVar(&o.workload, "workload", "", "named workload to compile and simulate")
	flag.StringVar(&o.machine, "machine", "baseline", "baseline, SPEAR-128, SPEAR-256, SPEAR.sf-128, SPEAR.sf-256")
	flag.IntVar(&o.memLat, "mem-latency", 120, "memory access latency in cycles")
	flag.IntVar(&o.l2Lat, "l2-latency", 12, "L2 access latency in cycles")
	flag.Uint64Var(&o.trace, "trace", 0, "print a pipeline trace for the first N cycles")
	flag.Uint64Var(&o.maxCycles, "max-cycles", 0, "override the deadlock cycle limit (0 = machine default)")
	flag.Int64Var(&o.seed, "seed", 1, "fault-injection seed (with -inject)")
	flag.StringVar(&o.inject, "inject", "", "inject a p-thread fault class before simulating: corrupt-mask, bogus-trigger, truncate-live-ins, flip-opcode-bits")
	flag.StringVar(&o.events, "events", "", "write the structured event stream to this file (JSONL)")
	flag.Uint64Var(&o.eventCycles, "event-cycles", 0, "bound the event stream to the first N cycles (0 = whole run)")
	flag.Uint64Var(&o.metrics, "metrics", 0, "sample interval metrics every N cycles and print the series")
	flag.BoolVar(&o.perf, "perf", false, "time the simulator's own pipeline stages and print the attribution table")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "spearsim: interrupt — preempting the simulation (signal again to force exit)")
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "spearsim: forced exit")
		os.Exit(exitErr)
	}()

	if err := perf.Profiled("spearsim", *cpuProfile, *memProfile, func() error { return run(ctx, o) }); err != nil {
		fmt.Fprintln(os.Stderr, "spearsim:", err)
		var dl *cpu.DeadlockError
		switch {
		case errors.Is(err, context.Canceled):
			os.Exit(exitInterrupted)
		case errors.As(err, &dl):
			fmt.Fprint(os.Stderr, "\npipeline state at abort:\n"+dl.Dump)
			os.Exit(exitDeadlock)
		case errors.Is(err, cpu.ErrValidation) || errors.Is(err, cpu.ErrDivergence):
			os.Exit(exitValidation)
		}
		os.Exit(exitErr)
	}
}

func machineConfig(name string) (cpu.Config, error) {
	switch name {
	case "baseline":
		return cpu.BaselineConfig(), nil
	case "SPEAR-128":
		return cpu.SPEARConfig(128, false), nil
	case "SPEAR-256":
		return cpu.SPEARConfig(256, false), nil
	case "SPEAR.sf-128":
		return cpu.SPEARConfig(128, true), nil
	case "SPEAR.sf-256":
		return cpu.SPEARConfig(256, true), nil
	}
	return cpu.Config{}, fmt.Errorf("unknown machine %q", name)
}

func run(ctx context.Context, o options) error {
	if (o.bin == "") == (o.workload == "") {
		return fmt.Errorf("exactly one of -bin or -workload is required")
	}
	if o.trace > 0 && o.events != "" {
		return fmt.Errorf("-trace and -events are exclusive: the simulator has one event stream")
	}
	cfg, err := machineConfig(o.machine)
	if err != nil {
		return err
	}
	cfg.Hierarchy = cfg.Hierarchy.WithLatencies(o.l2Lat, o.memLat)
	if o.maxCycles > 0 {
		cfg.MaxCycles = o.maxCycles
	}
	cfg.MetricsInterval = o.metrics
	if o.perf {
		cfg.Perf = perf.NewRegistry()
	}
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		w := obs.NewJSONL(f)
		defer func() {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "spearsim:", err)
			}
			f.Close()
		}()
		cfg.Events = w
		cfg.EventCycles = o.eventCycles
	}
	if o.trace > 0 {
		cfg.Events = obs.NewText(os.Stdout)
		cfg.EventCycles = o.trace
	}

	var p *prog.Program
	switch {
	case o.bin != "":
		f, err := os.Open(o.bin)
		if err != nil {
			return err
		}
		p, err = prog.ReadFrom(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		k, ok := workloads.ByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		prep, err := harness.Prepare(*k, harness.DefaultOptions())
		if err != nil {
			return err
		}
		p = prep.Ref
	}

	if o.inject != "" {
		return runInjected(p, cfg, harness.FaultClass(o.inject), o.seed)
	}

	res, err := cpu.RunContext(ctx, p, cfg)
	if err != nil {
		return err
	}
	printResult(p, res)
	printIntervals(res)
	printPerf(res, cfg.Perf)
	return nil
}

// runInjected perturbs the binary's p-thread annotations, simulates it, and
// checks the containment invariant against the functional emulator.
func runInjected(p *prog.Program, cfg cpu.Config, class harness.FaultClass, seed int64) error {
	if !cfg.SPEAR {
		return fmt.Errorf("-inject requires a SPEAR machine (got %s)", cfg.Name)
	}
	injection, err := harness.NewInjector(seed).Inject(p, class)
	if err != nil {
		return err
	}
	baseHash, baseCount, err := harness.BaselineState(p, 200_000_000)
	if err != nil {
		return err
	}
	fmt.Printf("injected           %s (%s), seed %d\n", injection.Class, injection.Desc, seed)
	v := harness.VerifyContainment(injection, cfg, baseHash, baseCount)
	if v.Err != nil {
		return v.Err
	}
	printResult(injection.Prog, v.Res)
	fmt.Printf("containment        state match %v, commit-count match %v\n", v.StateMatch, v.CountMatch)
	if !v.Contained() {
		return fmt.Errorf("containment invariant violated under %s", injection.Class)
	}
	return nil
}

func printResult(p *prog.Program, r *cpu.Result) {
	fmt.Printf("program            %s (%d static instructions, %d p-threads)\n", p.Name, len(p.Text), len(p.PThreads))
	fmt.Printf("machine            %s\n", r.Config)
	fmt.Printf("cycles             %d\n", r.Cycles)
	fmt.Printf("instructions       %d (main thread)\n", r.MainCommitted)
	fmt.Printf("IPC                %.4f\n", r.IPC)
	fmt.Printf("cond branches      %d (hit ratio %.4f, IPB %.2f)\n", r.CondBranches, r.BranchRatio, r.IPB)
	fmt.Printf("avg IFQ occupancy  %.1f entries\n", r.AvgIFQOccupancy)
	fmt.Printf("L1D misses         main %d, p-thread %d (accesses %d / %d)\n",
		r.L1D.Misses[mem.TidMain], r.L1D.Misses[mem.TidHelper],
		r.L1D.Accesses[mem.TidMain], r.L1D.Accesses[mem.TidHelper])
	fmt.Printf("L2 misses          main %d, p-thread %d\n",
		r.L2.Misses[mem.TidMain], r.L2.Misses[mem.TidHelper])
	if r.Triggers > 0 || r.Extracted > 0 {
		fmt.Printf("triggers           %d (%d sessions completed, %d killed by flushes)\n",
			r.Triggers, r.SessionsDone, r.SessionsKilled)
		fmt.Printf("p-thread activity  %d extracted, %d committed, %d prefetch loads, %d live-in copies\n",
			r.Extracted, r.PCommitted, r.PrefetchLoads, r.LiveInCopies)
	}
	if f := r.PFault; f.Total() > 0 || f.Suppressed > 0 {
		fmt.Printf("p-thread faults    %d contained (oob %d, misaligned %d, div-zero %d, budget %d)\n",
			f.Total(), f.OOB, f.Misaligned, f.DivZero, f.Budget)
		fmt.Printf("fault backoff      %d disables, %d suppressed triggers\n", f.Disabled, f.Suppressed)
	}
	if pf := r.Prefetch; pf.Fills > 0 {
		fmt.Printf("prefetch fills     %d (timely %d, late %d, useless %d, harmful %d; %d PCs)\n",
			pf.Fills, pf.Timely, pf.Late, pf.Useless, pf.Harmful, len(pf.PerPC))
	}
	fmt.Printf("final state hash   %#016x\n", r.FinalStateHash)
}

// printPerf renders the -perf stage-timing attribution: host nanoseconds
// spent in each simulator pipeline stage, each stage's share of the run
// loop, how much of the loop the buckets explain in total, and how many
// dead cycles the loop jumped over (read from the run's registry).
func printPerf(r *cpu.Result, reg *perf.Registry) {
	if r.Timing == nil {
		return
	}
	tm := r.Timing
	t := stats.NewTable("stage", "host time", "ns/cycle", "% of loop")
	for _, sg := range tm.Stages {
		pct := 0.0
		if tm.LoopNanos > 0 {
			pct = 100 * float64(sg.Nanos) / float64(tm.LoopNanos)
		}
		perCycle := 0.0
		if r.Cycles > 0 {
			perCycle = float64(sg.Nanos) / float64(r.Cycles)
		}
		t.AddRow(sg.Name, time.Duration(sg.Nanos).Round(time.Microsecond).String(), perCycle, pct)
	}
	coverage := 0.0
	if tm.LoopNanos > 0 {
		coverage = 100 * float64(tm.StageSum()) / float64(tm.LoopNanos)
	}
	fmt.Printf("\nsimulator self-timing (wall %v, loop %v)\n%s",
		time.Duration(tm.WallNanos).Round(time.Microsecond),
		time.Duration(tm.LoopNanos).Round(time.Microsecond), t.String())
	fmt.Printf("stage buckets cover %.1f%% of the run loop\n", coverage)
	if r.Cycles > 0 {
		skipped := reg.Counter("cpu.cycles.skipped").Value()
		fmt.Printf("skipped %d of %d cycles (%.1f%%)\n", skipped, r.Cycles, 100*float64(skipped)/float64(r.Cycles))
	}
}

// printIntervals renders the -metrics time series as a table plus an IPC
// sparkline.
func printIntervals(r *cpu.Result) {
	if len(r.Intervals) == 0 {
		return
	}
	ipc := make([]float64, len(r.Intervals))
	t := stats.NewTable("cycle", "IPC", "IFQ", "RUU", "L1D miss", "L2 miss", "active", "p-share", "triggers", "faults")
	for i, sm := range r.Intervals {
		ipc[i] = sm.IPC
		t.AddRow(fmt.Sprint(sm.Cycle), sm.IPC, sm.IFQOccupancy, sm.RUUOccupancy,
			sm.L1DMissRate, sm.L2MissRate, sm.ActiveFrac, sm.PCommitShare,
			fmt.Sprint(sm.Triggers), fmt.Sprint(sm.PFaults))
	}
	fmt.Printf("\ninterval metrics (%d samples)\n%s", len(r.Intervals), t.String())
	fmt.Printf("IPC  %s  (p50 %.3f, p95 %.3f)\n",
		stats.Sparkline(ipc), stats.Percentile(ipc, 50), stats.Percentile(ipc, 95))
}
