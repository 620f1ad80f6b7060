package sched

import (
	"context"
	"fmt"

	"spear/internal/cpu"
	"spear/internal/harness"
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

// SuiteEngine is the engine every sweep runs through: each Sweep
// prepares its own suite from the request's kernels and seed, runs it,
// and drops it. Suites are not kept across jobs: identical requests are
// served by the scheduler's job dedup and, after a restart, by the
// report store. Safe for concurrent use.
type SuiteEngine struct {
	// Base is the options template: compiler knobs, per-sweep pool
	// width, perf registry. Kernels and Seed are overlaid
	// from each request.
	Base harness.Options
	// NewSuite overrides suite construction (tests substitute synthetic
	// suites built with harness.NewStaticSuite). Nil = harness.NewSuiteContext.
	NewSuite func(ctx context.Context, opts harness.Options) (*harness.Suite, error)
}

// NewSuiteEngine returns a SuiteEngine with the given options template.
func NewSuiteEngine(base harness.Options) *SuiteEngine {
	return &SuiteEngine{Base: base}
}

// EngineForSuite wraps an existing suite as an Engine; spearbench uses
// it (the CLI builds its suite up front and reuses it for the figure
// experiments and -autoprofile). The request's Kernels/Seed are ignored
// — the suite's own preparation and options are the identity; the
// caller keeps them consistent.
func EngineForSuite(s *harness.Suite) Engine {
	return &SuiteEngine{NewSuite: func(context.Context, harness.Options) (*harness.Suite, error) { return s, nil }}
}

func (e *SuiteEngine) Sweep(ctx context.Context, req Request, j *harness.SweepJournal) (*harness.Report, error) {
	cfgs, err := ResolveConfigs(req.Configs)
	if err != nil {
		return nil, err
	}
	opts := e.Base
	opts.Kernels = req.Kernels
	opts.Seed = req.Seed
	build := e.NewSuite
	if build == nil {
		build = harness.NewSuiteContext
	}
	s, err := build(ctx, opts)
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
