// Package harness prepares the workloads (assemble, profile, SPEAR-compile)
// and sweeps the machine configurations that regenerate every table and
// figure in the paper's evaluation: Table 1 (benchmark inventory),
// Figure 6 (normalized IPC for baseline/SPEAR-128/SPEAR-256), Table 3
// (longer-IFQ sensitivity vs branch behaviour), Figure 7 (separate
// functional units), Figure 8 (cache-miss reduction), and Figure 9
// (memory-latency tolerance). Each figure is a view of one sweep report.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"time"

	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/perf"
	"spear/internal/prog"
	"spear/internal/spearcc"
	"spear/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	// Kernels restricts the benchmark set (nil = all fifteen).
	Kernels []string
	// Compiler overrides the SPEAR compiler options.
	Compiler spearcc.Options
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Parallel runs independent simulations on multiple goroutines.
	Parallel int
	// RunTimeout is the per-simulation wall-clock watchdog: a run that
	// exceeds it is cancelled through its context and reported as an
	// error instead of wedging the whole sweep. 0 disables the watchdog.
	RunTimeout time.Duration
	// Seed folds into each run's journal key so that sweeps with
	// different seeds never collide in a shared journal directory.
	Seed int64
	// FaultHook, when non-nil, is called once before every run; a
	// non-nil return fails that run with an ordinary error row. It exists
	// to exercise the journal/resume machinery in tests and fault
	// drills and is never set in normal operation.
	FaultHook func(kernel, config string) error
	// Perf, when non-nil, turns on performance observability for every
	// run: the registry is handed to the simulator (sampled per-stage
	// host-time buckets, Result.Timing), harness spans (sweep, run)
	// accumulate into it, and each run executes under pprof labels
	// (kernel, config, run) so CPU profiles attribute samples to their
	// (kernel, config) pair. Nil (the default) costs one branch per run
	// and keeps reports byte-deterministic.
	Perf *perf.Registry
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	opts := Options{Compiler: spearcc.DefaultOptions(), Parallel: 4, RunTimeout: 5 * time.Minute, Seed: 1}
	// The kernels are scaled down from the paper's hundreds of millions
	// of instructions; scale the profiling knobs accordingly. The miss
	// threshold separates truly delinquent loads from cold-miss noise
	// (e.g. field's resident scan) at our instruction counts.
	opts.Compiler.Profile.MaxInstr = 4_000_000
	opts.Compiler.Profile.MissThreshold = 2048
	return opts
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Prepared is one benchmark ready for simulation: the SPEAR-compiled text
// with the reference input installed.
type Prepared struct {
	Kernel   workloads.Kernel
	Ref      *prog.Program   // annotated text + reference data
	Report   *spearcc.Report // compiler diagnostics
	RefInstr uint64          // reference-input dynamic instruction count
}

// prepareProtected isolates Prepare against panics so that one broken
// kernel cannot take down the whole suite build.
func prepareProtected(k workloads.Kernel, opts Options) (p *Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("harness: prepare %s: panic: %v", k.Name, r)
		}
	}()
	return Prepare(k, opts)
}

// Prepare builds, profiles, and SPEAR-compiles one kernel.
func Prepare(k workloads.Kernel, opts Options) (*Prepared, error) {
	train, err := k.Build(workloads.Train)
	if err != nil {
		return nil, err
	}
	annotated, report, err := spearcc.Compile(train, opts.Compiler)
	if err != nil {
		return nil, fmt.Errorf("harness: compile %s: %w", k.Name, err)
	}
	ref, err := k.Build(workloads.Ref)
	if err != nil {
		return nil, err
	}
	// The SPEAR binary is the annotated text with the reference data.
	annotated.Data = ref.Data
	annotated.Name = ref.Name
	if err := annotated.Validate(); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", k.Name, err)
	}
	m := emu.New(annotated)
	if err := m.Run(50_000_000); err != nil {
		return nil, fmt.Errorf("harness: %s ref run: %w", k.Name, err)
	}
	return &Prepared{Kernel: k, Ref: annotated, Report: report, RefInstr: m.Count}, nil
}

// Suite holds every prepared kernel. Its sweeps run each (kernel,
// config) pair they are asked for exactly once; the figures and tables
// are views of the resulting report.
type Suite struct {
	Opts     Options
	Prepared []*Prepared

	// Failed records kernels that could not be prepared (keyed by kernel
	// name); the suite carries on with the rest.
	Failed map[string]error
}

// NewSuiteContext prepares the selected kernels. Preparation failures
// are recorded in Suite.Failed rather than aborting the suite; it errors
// only when a kernel name is unknown or no kernel could be prepared.
// Kernels not yet being prepared when ctx is cancelled are skipped, and a
// cancelled context fails the suite rather than returning a silently
// partial one.
func NewSuiteContext(ctx context.Context, opts Options) (*Suite, error) {
	names := opts.Kernels
	if len(names) == 0 {
		for _, k := range workloads.All() {
			names = append(names, k.Name)
		}
	}
	s := &Suite{Opts: opts, Failed: map[string]error{}}
	type slot struct {
		p   *Prepared
		err error
	}
	results := make([]slot, len(names))
	sem := make(chan struct{}, max(1, opts.Parallel))
	var wg sync.WaitGroup
	for i, name := range names {
		k, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown kernel %q", name)
		}
		wg.Add(1)
		go func(i int, k workloads.Kernel) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				results[i] = slot{err: err}
				return
			}
			opts.logf("prepare %s", k.Name)
			p, err := prepareProtected(k, opts)
			results[i] = slot{p: p, err: err}
		}(i, *k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: suite preparation interrupted: %w", err)
	}
	for i, r := range results {
		if r.err != nil {
			opts.logf("prepare %s FAILED: %v", names[i], r.err)
			s.Failed[names[i]] = r.err
			continue
		}
		s.Prepared = append(s.Prepared, r.p)
	}
	if len(s.Prepared) == 0 {
		for name, err := range s.Failed {
			return nil, fmt.Errorf("harness: every kernel failed to prepare (%s: %w)", name, err)
		}
		return nil, fmt.Errorf("harness: no kernels selected")
	}
	return s, nil
}

// NewStaticSuite builds a suite directly around pre-assembled programs,
// bypassing the build/profile/compile pipeline entirely. Each program is
// installed as a prepared kernel under its Name. It exists for tests and
// tools (the sched and speard batteries, synthetic benchmarks) that need
// the full run/journal machinery without paying for real kernel
// preparation; production paths go through NewSuiteContext.
func NewStaticSuite(opts Options, progs ...*prog.Program) *Suite {
	s := &Suite{Opts: opts, Failed: map[string]error{}}
	for _, p := range progs {
		s.Prepared = append(s.Prepared, &Prepared{Kernel: workloads.Kernel{Name: p.Name}, Ref: p, RefInstr: 1})
	}
	return s
}

// panicError is a simulation panic converted to an ordinary error by
// runProtected.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic in simulation: %v", e.val) }

// errWatchdog is the cancellation cause runProtected attaches to a run's
// RunTimeout context, telling a watchdog expiry apart from a deadline or
// cancellation the caller imposed.
var errWatchdog = errors.New("harness: run watchdog expired")

// runProtected runs one simulation with panic isolation, cooperative
// cancellation, and the suite's wall-clock watchdog: a panicking or
// wedged run becomes an ordinary error on this (kernel, config) pair
// instead of killing the process or hanging the sweep. The watchdog is a
// context timeout, so the simulator's one context poll stops the run.
// Its error wraps cpu.ErrInterrupted but not context.DeadlineExceeded:
// a watchdog expiry is a run failure to record, not a cooperative
// interruption to re-execute on resume.
func runProtected(ctx context.Context, p *prog.Program, cfg cpu.Config, timeout time.Duration) (res *cpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicError{val: r}
		}
	}()
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeoutCause(ctx, timeout, errWatchdog)
		defer cancel()
	}
	res, err = cpu.RunContext(runCtx, p, cfg)
	if errors.Is(err, cpu.ErrInterrupted) && ctx.Err() == nil && errors.Is(context.Cause(runCtx), errWatchdog) {
		err = fmt.Errorf("watchdog: exceeded %v: %w", timeout, cpu.ErrInterrupted)
	}
	return res, err
}

// runOnce executes one (kernel, config) run: the FaultHook seam, then
// the protected simulation. With perf observability on, the run executes
// under pprof labels — kernel, config, and the run key as the run id —
// so CPU profile samples are attributable per pair.
func (s *Suite) runOnce(ctx context.Context, p *Prepared, cfg cpu.Config, key string) (res *cpu.Result, err error) {
	s.Opts.logf("run %s on %s (mem %d)", p.Kernel.Name, cfg.Name, cfg.Hierarchy.MemLatency)
	reg := s.Opts.Perf
	defer reg.Span("harness.run").Start().End()
	defer func() {
		if err != nil {
			err = fmt.Errorf("harness: %s on %s: %w", p.Kernel.Name, cfg.Name, err)
		}
	}()
	if hook := s.Opts.FaultHook; hook != nil {
		if err := hook(p.Kernel.Name, cfg.Name); err != nil {
			return nil, fmt.Errorf("injected fault: %w", err)
		}
	}
	if reg == nil {
		return runProtected(ctx, p.Ref, cfg, s.Opts.RunTimeout)
	}
	// Hand the registry to the simulator: this is what turns on its
	// sampled stage timing and populates Result.Timing.
	cfg.Perf = reg
	pprof.Do(ctx, pprof.Labels("kernel", p.Kernel.Name, "config", cfg.Name, "run", key), func(ctx context.Context) {
		res, err = runProtected(ctx, p.Ref, cfg, s.Opts.RunTimeout)
	})
	return res, err
}

// interrupted reports whether the error is a cooperative-cancellation
// abort (as opposed to a run failure worth recording).
func interrupted(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// StandardConfigs returns the five machine models of Figures 6 and 7:
// baseline, SPEAR-128, SPEAR-256, SPEAR.sf-128, SPEAR.sf-256.
func StandardConfigs() []cpu.Config {
	return []cpu.Config{
		cpu.BaselineConfig(),
		cpu.SPEARConfig(128, false),
		cpu.SPEARConfig(256, false),
		cpu.SPEARConfig(128, true),
		cpu.SPEARConfig(256, true),
	}
}
