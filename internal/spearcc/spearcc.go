// Package spearcc drives the four modules of the SPEAR compiler (Figure 4):
//
//	binary ──► ① CFG drawing tool  (internal/cfg)
//	       ──► ② profiling tool    (internal/profile)
//	       ──► ③ program slicing   (internal/slicer)
//	       ──► ④ attaching tool    (this package)
//	       ──► SPEAR binary (the same text with a p-thread table attached)
//
// The profiling step must run the program on its *training* input; the
// produced SPEAR binary is then simulated on the reference input, exactly
// as the paper does ("we intentionally used different input data sets for
// profiling and benchmark simulation").
package spearcc

import (
	"fmt"
	"sort"
	"strings"

	"spear/internal/cfg"
	"spear/internal/profile"
	"spear/internal/prog"
	"spear/internal/slicer"
)

// Options configures the pipeline.
type Options struct {
	Profile profile.Config
	Slice   slicer.Config
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{Profile: profile.DefaultConfig(), Slice: slicer.DefaultConfig()}
}

// Report summarizes a compilation for diagnostics and the harness.
type Report struct {
	Profiled    uint64 // instructions profiled
	DLoads      []int
	SliceInfo   []slicer.Report
	Graph       *cfg.Graph
	ProfileData *profile.Result
}

// Compile runs the full pipeline on train (a program whose data image is
// the training input) and returns the SPEAR binary: a deep copy of train
// with the p-thread table attached. The input program is not modified.
func Compile(train *prog.Program, opts Options) (*prog.Program, *Report, error) {
	if err := train.Validate(); err != nil {
		return nil, nil, fmt.Errorf("spearcc: invalid input binary: %w", err)
	}
	g, err := cfg.Build(train)
	if err != nil {
		return nil, nil, fmt.Errorf("spearcc: cfg: %w", err)
	}
	res, err := profile.Run(train, g, opts.Profile)
	if err != nil {
		return nil, nil, fmt.Errorf("spearcc: profile: %w", err)
	}
	return Slice(train, &Report{Profiled: res.InstrCount, DLoads: res.DLoads, Graph: g, ProfileData: res}, opts.Slice)
}

// Slice runs modules ③ and ④ on p under c, reusing the CFG and profile
// of an earlier compilation of p's text. The slicer reads only the text,
// so p may carry any data image or p-thread table; the result is what a
// full Compile with c would attach.
func Slice(p *prog.Program, base *Report, c slicer.Config) (*prog.Program, *Report, error) {
	pthreads, sliceReps := slicer.Build(p, base.Graph, base.ProfileData, c)
	out := Attach(p, pthreads)
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("spearcc: attach produced invalid binary: %w", err)
	}
	rep := *base
	rep.SliceInfo = sliceReps
	return out, &rep, nil
}

// Attach is module ④: it produces a copy of p with the p-thread table
// installed (sorted by d-load PC so the hardware PT lookup is
// deterministic).
func Attach(p *prog.Program, pthreads []prog.PThread) *prog.Program {
	out := p.Clone()
	out.PThreads = append([]prog.PThread(nil), pthreads...)
	sort.Slice(out.PThreads, func(i, j int) bool { return out.PThreads[i].DLoad < out.PThreads[j].DLoad })
	return out
}

// Describe renders a human-readable compilation report (used by the
// cmd/spearcc tool and the compiler_pipeline example).
func (r *Report) Describe(p *prog.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profiled %d instructions; %d delinquent load(s)\n", r.Profiled, len(r.DLoads))
	for _, rep := range r.SliceInfo {
		loc := fmt.Sprintf("pc %d", rep.DLoad)
		if name, ok := p.LabelAt(rep.DLoad); ok {
			loc += " (" + name + ")"
		}
		if rep.Skipped {
			fmt.Fprintf(&b, "  d-load %s: %d misses — skipped: %s\n", loc, rep.Misses, rep.Reason)
			continue
		}
		pt := rep.PThread
		fmt.Fprintf(&b, "  d-load %s: %d misses -> p-thread of %d instr, region [%d,%d], d-cycle %.1f, live-ins %v\n",
			loc, rep.Misses, pt.Size(), pt.RegionStart, pt.RegionEnd, pt.DCycle, pt.LiveIns)
		for _, m := range pt.Members {
			fmt.Fprintf(&b, "    %4d: %v\n", m, p.Text[m])
		}
	}
	return b.String()
}
