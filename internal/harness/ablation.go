package harness

import (
	"context"
	"errors"
	"fmt"

	"spear/internal/bpred"
	"spear/internal/cpu"
	"spear/internal/prog"
	"spear/internal/slicer"
	"spear/internal/spearcc"
	"spear/internal/stats"
)

// Ablation studies for the design choices DESIGN.md calls out: the
// paper's prefetching-range future work and its empirically chosen
// constants. Every setting is a view of one suite and one pooled sweep:
// a machine-side setting is a SPEAR-128 variant named after the setting,
// a slicer-side setting runs SPEAR-128 over re-sliced kernel rows. Each
// setting's IPC is normalised to the kernel's baseline.

// AblationStudy is one study: its title and its settings.
type AblationStudy struct {
	Name     string
	Settings []AblationSetting
}

// AblationSetting is one setting of a study. Machine is the machine it
// runs; Slice, when non-nil, adjusts the slicer options of the kernel
// rows it runs over (the CFG and the profile stay those of the suite).
type AblationSetting struct {
	Label   string
	Machine cpu.Config
	Slice   func(*slicer.Config)
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

// sliceStudy makes one slicer-side setting per value; apply sets the
// slicer option and returns the setting's label.
func sliceStudy[T any](name string, values []T, apply func(*slicer.Config, T) string) AblationStudy {
	st := AblationStudy{Name: name}
	for _, v := range values {
		st.Settings = append(st.Settings, AblationSetting{
			Label:   apply(&slicer.Config{}, v),
			Machine: cpu.SPEARConfig(128, false),
			Slice:   func(c *slicer.Config) { apply(c, v) },
		})
	}
	return st
}

// DefaultAblations returns every study with the settings spearbench
// -experiment ablate sweeps, in rendering order (DESIGN.md §7).
func DefaultAblations() []AblationStudy {
	return []AblationStudy{
		sliceStudy("prefetch-range (d-cycle threshold; paper: 120)", []float64{30, 60, 120, 240, 480},
			func(c *slicer.Config, th float64) string {
				c.DCycleThreshold = th
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
		sliceStudy("region selection policy (paper: d-cycle >= 120)",
			[]slicer.RegionPolicy{slicer.RegionInnermost, slicer.RegionDCycle, slicer.RegionOutermost},
			func(c *slicer.Config, pol slicer.RegionPolicy) string {
				c.Region = pol
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

// Ablate runs the studies over opts.Kernels (default: mcf, art, matrix)
// in one suite and one pooled sweep. Each kernel is prepared once; each
// distinct non-default slicer setting re-slices it, and a binary not yet
// in the suite adds a row named kernel@label after the first setting that
// produces it. A setting whose binary is already there reads that row,
// so each (binary, machine) pair runs once however many settings read
// it. A failing run is an error point; a cancelled one is a skipped
// point and marks its study interrupted. Ablate errs only when the suite
// cannot be built.
func Ablate(ctx context.Context, opts Options, studies ...AblationStudy) ([]*AblationResult, error) {
	if len(opts.Kernels) == 0 {
		opts.Kernels = defaultAblationKernels
	}
	s, err := NewSuiteContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	prepared := s.Prepared
	sliceOf := func(set AblationSetting) slicer.Config {
		c := opts.Compiler.Slice
		if set.Slice != nil {
			set.Slice(&c)
		}
		return c
	}
	// rowOf maps a slicer setting and a kernel to the row that runs it;
	// byBinary maps a kernel and a binary to the row that holds it.
	rowOf := map[slicer.Config]map[string]string{opts.Compiler.Slice: {}}
	byBinary := map[string]string{}
	binary := func(k string, ref *prog.Program) string {
		b, _ := prog.Marshal(ref) // Prepare and Slice validate; Marshal cannot fail
		return k + "\x00" + string(b)
	}
	for _, p := range prepared {
		rowOf[opts.Compiler.Slice][p.Kernel.Name] = p.Kernel.Name
		byBinary[binary(p.Kernel.Name, p.Ref)] = p.Kernel.Name
	}
	rows := func(c slicer.Config) (names []string) {
		for _, p := range prepared {
			names = append(names, rowOf[c][p.Kernel.Name])
		}
		return names
	}
	base := cpu.BaselineConfig()
	views := []View{{Configs: []cpu.Config{base}, Kernels: rows(opts.Compiler.Slice)}}
	for _, st := range studies {
		for _, set := range st.Settings {
			c := sliceOf(set)
			if rowOf[c] == nil {
				rowOf[c] = map[string]string{}
				for _, p := range prepared {
					k := p.Kernel
					k.Name += "@" + set.Label
					rowOf[c][p.Kernel.Name] = k.Name
					ref, rep, err := spearcc.Slice(p.Ref, p.Report, c)
					if err != nil {
						s.Failed[k.Name] = err
						continue
					}
					bin := binary(p.Kernel.Name, ref)
					if row, ok := byBinary[bin]; ok {
						rowOf[c][p.Kernel.Name] = row
						continue
					}
					byBinary[bin] = k.Name
					s.Prepared = append(s.Prepared, &Prepared{Kernel: k, Ref: ref, Report: rep, RefInstr: p.RefInstr})
				}
			}
			views = append(views, View{Configs: []cpu.Config{set.Machine}, Kernels: rows(c)})
		}
	}
	rep := s.SweepViews(ctx, "ablate", views)
	out := make([]*AblationResult, len(studies))
	for i, st := range studies {
		res := &AblationResult{Name: st.Name}
		for _, k := range opts.Kernels {
			b, baseErr := rep.results(k, base.Name)
			for _, set := range st.Settings {
				p := AblationPoint{Kernel: k, Setting: set.Label}
				r, err := rep.results(rowOf[sliceOf(set)][k], set.Machine.Name)
				switch {
				case baseErr != nil:
					p.Err = baseErr
				case err != nil:
					p.Err = err
				default:
					p.IPC, p.Norm = r[0].IPC, r[0].IPC/b[0].IPC
				}
				res.Interrupted = res.Interrupted || errors.Is(p.Err, ErrSkipped)
				res.Points = append(res.Points, p)
			}
		}
		out[i] = res
	}
	return out, nil
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
