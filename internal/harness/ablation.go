package harness

import (
	"context"
	"errors"
	"fmt"

	"spear/internal/bpred"
	"spear/internal/cpu"
	"spear/internal/slicer"
	"spear/internal/spearcc"
	"spear/internal/stats"
)

// Ablation studies for the design choices DESIGN.md calls out: the
// paper's prefetching-range future work and its empirically chosen
// constants. Every setting is a view of a pooled sweep. A machine-side
// setting is a SPEAR-128 variant named after the setting; a compile-side
// setting runs SPEAR-128 over a suite compiled with its options. Each
// setting's IPC is normalised to the kernel's baseline, which is
// simulated once per kernel.

// AblationStudy is one study: its title and its settings.
type AblationStudy struct {
	Name     string
	Settings []AblationSetting
}

// AblationSetting is one setting of a study. Machine is the machine it
// runs; Compile, when non-nil, adjusts the compiler options of the suite
// it runs over.
type AblationSetting struct {
	Label   string
	Machine cpu.Config
	Compile func(*spearcc.Options)
}

// AblationPoint is one setting's outcome on one kernel. A non-nil Err
// marks a run that failed or was skipped.
type AblationPoint struct {
	Kernel  string
	Setting string
	IPC     float64
	Norm    float64 // IPC / baseline IPC
	Err     error
}

// AblationResult is one study's outcome.
type AblationResult struct {
	Name   string
	Points []AblationPoint
	// Interrupted marks a study some of whose runs were cancelled; their
	// points carry an error wrapping ErrSkipped.
	Interrupted bool
}

// defaultAblationKernels are a strong-gain gather, an FP stream, and a
// branchy kernel — enough spread to show each knob's regime.
var defaultAblationKernels = []string{"mcf", "art", "matrix"}

// machineStudy makes one SPEAR-128 variant per value; apply sets the
// knob and returns the setting's label, which names the machine.
func machineStudy[T any](name string, values []T, apply func(*cpu.Config, T) string) AblationStudy {
	st := AblationStudy{Name: name}
	for _, v := range values {
		cfg := cpu.SPEARConfig(128, false)
		cfg.Name = apply(&cfg, v)
		st.Settings = append(st.Settings, AblationSetting{Label: cfg.Name, Machine: cfg})
	}
	return st
}

// compileStudy makes one compile-side setting per value; apply sets the
// compiler option and returns the setting's label.
func compileStudy[T any](name string, values []T, apply func(*spearcc.Options, T) string) AblationStudy {
	st := AblationStudy{Name: name}
	for _, v := range values {
		st.Settings = append(st.Settings, AblationSetting{
			Label:   apply(&spearcc.Options{}, v),
			Machine: cpu.SPEARConfig(128, false),
			Compile: func(o *spearcc.Options) { apply(o, v) },
		})
	}
	return st
}

// DefaultAblations returns every study with the settings spearbench
// -experiment ablate sweeps, in rendering order (DESIGN.md §7).
func DefaultAblations() []AblationStudy {
	return []AblationStudy{
		compileStudy("prefetch-range (d-cycle threshold; paper: 120)", []float64{30, 60, 120, 240, 480},
			func(o *spearcc.Options, th float64) string {
				o.Slice.DCycleThreshold = th
				return fmt.Sprintf("d-cycle>=%.0f", th)
			}),
		machineStudy("extraction bandwidth (paper: issue/2 = 4)", []int{1, 2, 4, 8},
			func(cfg *cpu.Config, w int) string {
				cfg.ExtractWidth = w
				return fmt.Sprintf("extract=%d", w)
			}),
		machineStudy("trigger occupancy (paper: IFQ/2)", []float64{0.25, 0.5, 0.75},
			func(cfg *cpu.Config, f float64) string {
				cfg.TriggerFraction = f
				return fmt.Sprintf("occ>=%.2f*IFQ", f)
			}),
		machineStudy("p-thread issue priority (paper: on)", []string{"on", "off"},
			func(cfg *cpu.Config, v string) string {
				cfg.PThreadPriority = v == "on"
				return "priority=" + v
			}),
		compileStudy("region selection policy (paper: d-cycle >= 120)",
			[]slicer.RegionPolicy{slicer.RegionInnermost, slicer.RegionDCycle, slicer.RegionOutermost},
			func(o *spearcc.Options, pol slicer.RegionPolicy) string {
				o.Slice.Region = pol
				return pol.String()
			}),
		machineStudy("p-thread context size (default: 128)", []int{16, 32, 64, 128},
			func(cfg *cpu.Config, n int) string {
				cfg.PRUUSize = n
				return fmt.Sprintf("p-RUU=%d", n)
			}),
		machineStudy("branch predictor (paper: bimodal)", []bpred.Kind{bpred.Bimodal, bpred.Gshare},
			func(cfg *cpu.Config, k bpred.Kind) string {
				cfg.Predictor = cfg.Predictor.WithKind(k)
				return k.String()
			}),
	}
}

// Ablate runs the studies over opts.Kernels (default: mcf, art, matrix).
// The default suite's pooled sweep runs the baseline and every setting
// that keeps the default compiler options; each other compiler setting
// builds one suite and sweeps its machines. Each (suite, machine) pair
// runs once however many settings read it. A failing run is an error
// point; a cancelled one is a skipped point and marks its study
// interrupted. Ablate errs only when the default suite cannot be built.
func Ablate(ctx context.Context, opts Options, studies ...AblationStudy) ([]*AblationResult, error) {
	if len(opts.Kernels) == 0 {
		opts.Kernels = defaultAblationKernels
	}
	base := cpu.BaselineConfig()
	compilers := []spearcc.Options{opts.Compiler}
	views := map[spearcc.Options][]View{opts.Compiler: {{Name: base.Name, Configs: []cpu.Config{base}}}}
	for _, st := range studies {
		for _, set := range st.Settings {
			c := set.compiler(opts.Compiler)
			if _, ok := views[c]; !ok {
				compilers = append(compilers, c)
			}
			views[c] = append(views[c], View{Name: set.Label, Configs: []cpu.Config{set.Machine}})
		}
	}
	reports := map[spearcc.Options]*Report{}
	failed := map[spearcc.Options]error{}
	for _, c := range compilers {
		o := opts
		o.Compiler = c
		s, err := NewSuiteContext(ctx, o)
		switch {
		case err == nil:
			reports[c] = s.SweepViews(ctx, "ablate", views[c])
		case c == opts.Compiler:
			return nil, err
		case interrupted(err):
			failed[c] = fmt.Errorf("harness: %w: %s", ErrSkipped, SkipInterrupted)
		default:
			failed[c] = err
		}
	}
	result := func(c spearcc.Options, kernel, config string) (*cpu.Result, error) {
		if err := failed[c]; err != nil {
			return nil, err
		}
		r, err := reports[c].results(kernel, config)
		if err != nil {
			return nil, err
		}
		return r[0], nil
	}
	out := make([]*AblationResult, len(studies))
	for i, st := range studies {
		res := &AblationResult{Name: st.Name}
		for _, k := range opts.Kernels {
			b, baseErr := result(opts.Compiler, k, base.Name)
			for _, set := range st.Settings {
				p := AblationPoint{Kernel: k, Setting: set.Label}
				r, err := result(set.compiler(opts.Compiler), k, set.Machine.Name)
				switch {
				case baseErr != nil:
					p.Err = baseErr
				case err != nil:
					p.Err = err
				default:
					p.IPC, p.Norm = r.IPC, r.IPC/b.IPC
				}
				res.Interrupted = res.Interrupted || errors.Is(p.Err, ErrSkipped)
				res.Points = append(res.Points, p)
			}
		}
		out[i] = res
	}
	return out, nil
}

// compiler returns the compiler options the setting's suite is built
// with.
func (set AblationSetting) compiler(def spearcc.Options) spearcc.Options {
	if set.Compile != nil {
		set.Compile(&def)
	}
	return def
}

// RenderAblation formats one study.
func RenderAblation(a *AblationResult) string {
	t := stats.NewTable("kernel", "setting", "IPC", "vs baseline")
	last := ""
	for _, p := range a.Points {
		if last != "" && p.Kernel != last {
			t.AddSeparator()
		}
		last = p.Kernel
		if p.Err != nil {
			t.AddSpanRow(p.Kernel, fmt.Sprintf("[%s] ERROR: %v", p.Setting, p.Err))
			continue
		}
		t.AddRow(p.Kernel, p.Setting, p.IPC, fmt.Sprintf("%.3f", p.Norm))
	}
	return fmt.Sprintf("Ablation: %s\n%s", a.Name, t.String())
}
