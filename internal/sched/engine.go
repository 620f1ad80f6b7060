package sched

import (
	"context"
	"fmt"
	"sync"

	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/journal"
	"spear/internal/workloads"
)

// Engine executes one sweep request to a report. It is the pure-engine
// face of internal/harness: no queues, no deadlines, no admission — the
// scheduler owns all of that and hands the engine a context that already
// encodes cancellation and deadline.
type Engine interface {
	// Sweep runs the request's (kernel, config) grid, journaling through
	// j when non-nil, and returns the report. Cancellation (including an
	// expired deadline) must yield a report marked Interrupted rather
	// than an error: partial results are results.
	Sweep(ctx context.Context, req Request, j *harness.SweepJournal) (*harness.Report, error)
}

// Validator is optionally implemented by engines that can reject a
// request at admission time (unknown kernel, unknown config). Errors
// should wrap ErrBadRequest so transports map them to client errors.
type Validator interface {
	Validate(req Request) error
}

// ResolveConfigs maps machine-model names to the standard cpu configs
// (empty = the full standard five). Unknown names are ErrBadRequest.
func ResolveConfigs(names []string) ([]cpu.Config, error) {
	std := harness.StandardConfigs()
	if len(names) == 0 {
		return std, nil
	}
	byName := make(map[string]cpu.Config, len(std))
	for _, c := range std {
		byName[c.Name] = c
	}
	out := make([]cpu.Config, 0, len(names))
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("%w: unknown machine config %q", ErrBadRequest, n)
		}
		out = append(out, c)
	}
	return out, nil
}

// suiteEngine adapts one prebuilt harness.Suite to the Engine interface;
// spearbench uses it (the CLI builds its suite up front and reuses it
// for the figure experiments and -autoprofile).
type suiteEngine struct{ s *harness.Suite }

// EngineForSuite wraps an existing suite as an Engine. The request's
// Kernels/Seed are ignored — the suite's own preparation and options
// are the identity; the caller keeps them consistent.
func EngineForSuite(s *harness.Suite) Engine { return &suiteEngine{s: s} }

func (e *suiteEngine) Sweep(ctx context.Context, req Request, j *harness.SweepJournal) (*harness.Report, error) {
	cfgs, err := ResolveConfigs(req.Configs)
	if err != nil {
		return nil, err
	}
	return e.s.SweepReportContext(ctx, req.experiment(), cfgs, j), nil
}

func (e *suiteEngine) Validate(req Request) error {
	_, err := ResolveConfigs(req.Configs)
	return err
}

// SuiteEngine is the server-side engine: it builds harness suites on
// demand and keeps them warm across jobs, so a server that has already
// prepared (kernels, seed) once serves every later identical sweep from
// the in-process run memo — and every restart serves them from the
// journal. Safe for concurrent use; concurrent jobs needing the same
// suite build it once (singleflight).
type SuiteEngine struct {
	// Base is the options template: compiler knobs, per-sweep pool
	// width, perf registry. Kernels and Seed are overlaid
	// from each request.
	Base harness.Options
	// NewSuite overrides suite construction (tests substitute synthetic
	// suites built with harness.NewStaticSuite). Nil = harness.NewSuiteContext.
	NewSuite func(ctx context.Context, opts harness.Options) (*harness.Suite, error)
	// MaxSuites caps the warm-suite cache (default 8). Requests beyond
	// the cap still run — on an ephemeral, uncached suite — so the cap
	// bounds memory, never availability.
	MaxSuites int

	mu     sync.Mutex
	suites map[string]*suiteSlot
}

// suiteSlot is one singleflight suite build: ready closes when suite/err
// are set.
type suiteSlot struct {
	ready chan struct{}
	suite *harness.Suite
	err   error
}

// NewSuiteEngine returns a SuiteEngine with the given options template.
func NewSuiteEngine(base harness.Options) *SuiteEngine {
	return &SuiteEngine{Base: base, suites: map[string]*suiteSlot{}}
}

func (e *SuiteEngine) optsFor(req Request) harness.Options {
	opts := e.Base
	opts.Kernels = req.Kernels
	opts.Seed = req.Seed
	return opts
}

func (e *SuiteEngine) build(ctx context.Context, req Request) (*harness.Suite, error) {
	if e.NewSuite != nil {
		return e.NewSuite(ctx, e.optsFor(req))
	}
	return harness.NewSuiteContext(ctx, e.optsFor(req))
}

// suiteKey identifies a warm suite: the preparation inputs only.
func suiteKey(req Request) string {
	return journal.Hash(fmt.Sprintf("kernels=%v", req.Kernels), fmt.Sprintf("seed=%d", req.Seed))
}

// suite returns the warm suite for the request, building (and caching)
// it if needed.
func (e *SuiteEngine) suite(ctx context.Context, req Request) (*harness.Suite, error) {
	key := suiteKey(req)
	max := e.MaxSuites
	if max <= 0 {
		max = 8
	}
	e.mu.Lock()
	if e.suites == nil {
		e.suites = map[string]*suiteSlot{}
	}
	slot, ok := e.suites[key]
	if !ok {
		if len(e.suites) >= max {
			// Cache full: run this request on an ephemeral suite rather
			// than evicting a warm one mid-use.
			e.mu.Unlock()
			return e.build(ctx, req)
		}
		slot = &suiteSlot{ready: make(chan struct{})}
		e.suites[key] = slot
		e.mu.Unlock()
		slot.suite, slot.err = e.build(ctx, req)
		if slot.err != nil {
			// Failed builds (including cancelled ones) are not cached:
			// the next request retries.
			e.mu.Lock()
			delete(e.suites, key)
			e.mu.Unlock()
		}
		close(slot.ready)
		return slot.suite, slot.err
	}
	e.mu.Unlock()
	select {
	case <-slot.ready:
		return slot.suite, slot.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (e *SuiteEngine) Sweep(ctx context.Context, req Request, j *harness.SweepJournal) (*harness.Report, error) {
	cfgs, err := ResolveConfigs(req.Configs)
	if err != nil {
		return nil, err
	}
	s, err := e.suite(ctx, req)
	if err != nil {
		return nil, err
	}
	return s.SweepReportContext(ctx, req.experiment(), cfgs, j), nil
}

// Validate rejects unknown configs always, and unknown kernels when the
// engine prepares real workloads (a custom NewSuite defines its own
// kernel namespace, so only the configs can be checked).
func (e *SuiteEngine) Validate(req Request) error {
	if _, err := ResolveConfigs(req.Configs); err != nil {
		return err
	}
	if e.NewSuite != nil {
		return nil
	}
	for _, k := range req.Kernels {
		if _, ok := workloads.ByName(k); !ok {
			return fmt.Errorf("%w: unknown kernel %q", ErrBadRequest, k)
		}
	}
	return nil
}
