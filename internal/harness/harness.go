// Package harness prepares the workloads (assemble, profile, SPEAR-compile)
// and runs the machine configurations that regenerate every table and
// figure in the paper's evaluation: Table 1 (benchmark inventory),
// Figure 6 (normalized IPC for baseline/SPEAR-128/SPEAR-256), Table 3
// (longer-IFQ sensitivity vs branch behaviour), Figure 7 (separate
// functional units), Figure 8 (cache-miss reduction), and Figure 9
// (memory-latency tolerance).
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
	// to exercise the memo/journal/resume machinery in tests and fault
	// drills and is never set in normal operation.
	FaultHook func(kernel, config string) error
	// Perf, when non-nil, turns on performance observability for every
	// run: the registry is handed to the simulator (per-stage host-time
	// buckets, Result.Timing), harness spans (sweep, run) accumulate into
	// it, and each run executes under pprof labels (kernel, config, run)
	// so CPU profiles attribute samples to their (kernel, config) pair.
	// Nil (the default) costs one branch per run and keeps reports
	// byte-deterministic.
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

// Suite holds every prepared kernel and memoizes simulation results per
// (kernel, config, hierarchy-latency) so that the figures sharing runs
// (6, 7, 8, Table 3) do not repeat work.
type Suite struct {
	Opts     Options
	Prepared []*Prepared

	// Failed records kernels that could not be prepared (keyed by kernel
	// name); the suite carries on with the rest.
	Failed map[string]error

	// ctx is the suite-wide cancellation context installed by
	// NewSuiteContext; Run and RunConfigs honour it so that every
	// experiment built on the suite inherits graceful cancellation.
	ctx context.Context

	// mu guards the two maps below. cache memoizes finished outcomes;
	// inflight is the singleflight table — one entry per run currently
	// executing, so concurrent callers of the same (kernel, config) pair
	// simulate once and share the outcome.
	mu       sync.Mutex
	cache    map[string]runOutcome
	inflight map[string]*inflightRun
}

// inflightRun is one singleflight slot: done is closed once the leader's
// outcome is available in o.
type inflightRun struct {
	done chan struct{}
	o    runOutcome
}

// runOutcome memoizes one simulation's result or error, so a failing
// (kernel, config) pair is re-reported — not re-simulated — by every
// experiment that shares the run. kernel/config/dur identify and time
// the run for the slowest-run scan (dur is zero for outcomes replayed
// from a journal — they were not executed here).
type runOutcome struct {
	res    *cpu.Result
	err    error
	kernel string
	config string
	dur    time.Duration
}

// NewSuite prepares the selected kernels. Preparation failures are
// recorded in Suite.Failed rather than aborting the suite; NewSuite errors
// only when a kernel name is unknown or no kernel could be prepared.
func NewSuite(opts Options) (*Suite, error) {
	return NewSuiteContext(context.Background(), opts)
}

// NewSuiteContext is NewSuite with cancellation: kernels not yet being
// prepared when ctx is cancelled are skipped, and a cancelled context
// fails the suite rather than returning a silently partial one.
func NewSuiteContext(ctx context.Context, opts Options) (*Suite, error) {
	names := opts.Kernels
	if len(names) == 0 {
		for _, k := range workloads.All() {
			names = append(names, k.Name)
		}
	}
	s := &Suite{Opts: opts, ctx: ctx, cache: map[string]runOutcome{}, inflight: map[string]*inflightRun{}, Failed: map[string]error{}}
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
// the full run/memo/journal machinery without paying for real kernel
// preparation; production paths go through NewSuiteContext.
func NewStaticSuite(opts Options, progs ...*prog.Program) *Suite {
	s := &Suite{
		Opts:     opts,
		ctx:      context.Background(),
		cache:    map[string]runOutcome{},
		inflight: map[string]*inflightRun{},
		Failed:   map[string]error{},
	}
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

// memoKey is the suite memoization key for one (kernel, config) run.
func memoKey(p *Prepared, cfg cpu.Config) string {
	return fmt.Sprintf("%s|%s|%d|%d", p.Kernel.Name, cfg.Name, cfg.Hierarchy.L2.HitLatency, cfg.Hierarchy.MemLatency)
}

// Run simulates one prepared kernel under cfg, memoized (errors included).
func (s *Suite) Run(p *Prepared, cfg cpu.Config) (*cpu.Result, error) {
	return s.RunContext(s.suiteCtx(), p, cfg)
}

// RunContext is Run with explicit cancellation. Each (kernel, config)
// pair runs once: the outcome — error included — is memoized so every
// experiment sharing the run re-reports rather than re-simulates it.
func (s *Suite) RunContext(ctx context.Context, p *Prepared, cfg cpu.Config) (*cpu.Result, error) {
	o := s.runOutcomeFor(ctx, p, cfg)
	return o.res, o.err
}

// runOutcomeFor memoizes the run. Interrupted outcomes are NOT memoized:
// a cancelled run must re-execute on the next call (or the resumed
// sweep), not poison the cache.
//
// Concurrent calls for the same (kernel, config) pair are deduplicated
// by singleflight: the first caller becomes the leader and simulates;
// every other caller waits for the leader's outcome instead of running
// the simulation again. If the leader was interrupted (its outcome is
// not memoized) a waiter whose own context is still live retries —
// becoming the new leader — rather than propagating a cancellation it
// never suffered.
func (s *Suite) runOutcomeFor(ctx context.Context, p *Prepared, cfg cpu.Config) runOutcome {
	key := memoKey(p, cfg)
	for {
		s.mu.Lock()
		if o, ok := s.cache[key]; ok {
			s.mu.Unlock()
			return o
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return runOutcome{err: fmt.Errorf("%w: %w", cpu.ErrInterrupted, ctx.Err())}
			}
			if !interrupted(fl.o.err) {
				return fl.o
			}
			if ctx.Err() != nil {
				return fl.o
			}
			continue // leader was cancelled but we were not: take over
		}
		fl := &inflightRun{done: make(chan struct{})}
		if s.inflight == nil {
			s.inflight = map[string]*inflightRun{}
		}
		s.inflight[key] = fl
		s.mu.Unlock()

		s.Opts.logf("run %s on %s (mem %d)", p.Kernel.Name, cfg.Name, cfg.Hierarchy.MemLatency)
		o := s.runOnce(ctx, p, cfg)
		if o.err != nil {
			o.err = fmt.Errorf("harness: %s on %s: %w", p.Kernel.Name, cfg.Name, o.err)
		}
		s.mu.Lock()
		if !interrupted(o.err) {
			s.cache[key] = o
		}
		delete(s.inflight, key)
		s.mu.Unlock()
		fl.o = o
		close(fl.done)
		return o
	}
}

// runOnce executes one (kernel, config) run: the FaultHook seam, then
// the protected simulation. With perf observability on, the run executes
// under pprof labels — kernel, config, and the memo key as the run id —
// so CPU profile samples are attributable per pair.
func (s *Suite) runOnce(ctx context.Context, p *Prepared, cfg cpu.Config) (o runOutcome) {
	reg := s.Opts.Perf
	start := time.Now()
	sp := reg.Span("harness.run").Start()
	defer func() {
		sp.End()
		o.kernel, o.config, o.dur = p.Kernel.Name, cfg.Name, time.Since(start)
	}()
	if hook := s.Opts.FaultHook; hook != nil {
		if err := hook(p.Kernel.Name, cfg.Name); err != nil {
			return runOutcome{err: fmt.Errorf("injected fault: %w", err)}
		}
	}
	if reg == nil {
		o.res, o.err = runProtected(ctx, p.Ref, cfg, s.Opts.RunTimeout)
		return o
	}
	// Hand the registry to the simulator: this is what switches the
	// cycle loop to its timed variant and populates Result.Timing.
	cfg.Perf = reg
	pprof.Do(ctx, pprof.Labels("kernel", p.Kernel.Name, "config", cfg.Name, "run", memoKey(p, cfg)), func(ctx context.Context) {
		o.res, o.err = runProtected(ctx, p.Ref, cfg, s.Opts.RunTimeout)
	})
	return o
}

// SlowestRun scans the memoized outcomes for the completed run that took
// the longest wall time in this process (journal-replayed outcomes have
// no duration and never win). ok is false when nothing has run yet.
// spearbench -autoprofile uses it to pick the run worth re-executing
// under the CPU profiler.
func (s *Suite) SlowestRun() (kernel, config string, dur time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.cache {
		if o.res != nil && o.dur > dur {
			kernel, config, dur, ok = o.kernel, o.config, o.dur, true
		}
	}
	return kernel, config, dur, ok
}

// ResetRunCache forgets every memoized run outcome so the next sweep
// re-simulates from scratch. It exists so benchmarks
// (BenchmarkSweepParallel) can measure real simulation work on every
// iteration; it must not be called while runs are in flight.
func (s *Suite) ResetRunCache() {
	s.mu.Lock()
	s.cache = map[string]runOutcome{}
	s.mu.Unlock()
}

// suiteCtx returns the suite-wide context (Background when the suite was
// built without one).
func (s *Suite) suiteCtx() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// interrupted reports whether the error is a cooperative-cancellation
// abort (as opposed to a run failure worth recording).
func interrupted(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// RunConfigs simulates p under several configurations concurrently and
// returns results keyed by config name. On failure the map still carries
// every configuration that did complete (partial results), alongside the
// joined error.
func (s *Suite) RunConfigs(p *Prepared, cfgs []cpu.Config) (map[string]*cpu.Result, error) {
	return s.RunConfigsContext(s.suiteCtx(), p, cfgs)
}

// RunConfigsContext is RunConfigs with explicit cancellation.
func (s *Suite) RunConfigsContext(ctx context.Context, p *Prepared, cfgs []cpu.Config) (map[string]*cpu.Result, error) {
	out := make(map[string]*cpu.Result, len(cfgs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, max(1, s.Opts.Parallel))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg cpu.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := s.RunContext(ctx, p, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			out[cfg.Name] = r
			mu.Unlock()
		}(i, cfg)
	}
	wg.Wait()
	return out, errors.Join(errs...)
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
