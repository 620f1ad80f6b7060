package harness

import (
	"fmt"

	"spear/internal/cpu"
	"spear/internal/stats"
)

// The motivation experiment backs the paper's introductory claim:
// "traditional prefetching methods strongly rely on the predictability of
// memory access patterns and often fail when faced with irregular
// patterns". It runs the baseline superscalar, the baseline with a
// conventional PC-indexed stride prefetcher, and SPEAR-128 side by side —
// stride prefetching should recover the *regular* kernels (art's streams,
// matrix's constant strides) but do little for the irregular gathers
// (pointer, mcf, vpr), which is exactly where pre-execution earns its keep.

// MotivationRow is one benchmark's three-way comparison. A non-nil Err
// marks a kernel whose runs failed or were skipped.
type MotivationRow struct {
	Name       string
	Base       float64 // IPC
	Stride     float64 // baseline + stride prefetcher, normalized to Base
	Spear      float64 // SPEAR-128, normalized to Base
	Prefetches uint64  // stride prefetches issued
	Err        error
}

// motivationConfigs returns the three machines the motivation experiment
// compares: baseline, stride-2, and SPEAR-128.
func motivationConfigs() []cpu.Config {
	return []cpu.Config{cpu.BaselineConfig(), cpu.StrideConfig(2), cpu.SPEARConfig(128, false)}
}

// Motivation reads the three machines of every kernel from the report.
func Motivation(rep *Report) []MotivationRow {
	rows := make([]MotivationRow, 0, len(rep.Kernels))
	for _, name := range rep.Kernels {
		res, err := rep.results(name, configNames(motivationConfigs())...)
		if err != nil {
			rows = append(rows, MotivationRow{Name: name, Err: err})
			continue
		}
		base := res[0].IPC
		rows = append(rows, MotivationRow{
			Name:       name,
			Base:       base,
			Stride:     res[1].IPC / base,
			Spear:      res[2].IPC / base,
			Prefetches: res[1].StridePrefetches,
		})
	}
	return rows
}

// HybridRow compares software-triggered pre-execution (the static
// approach's overhead model) against SPEAR's hardware triggering. A
// non-nil Err marks a kernel whose runs failed or were skipped.
type HybridRow struct {
	Name      string
	Base      float64
	SWTrigger float64 // normalized to Base
	Spear     float64 // normalized to Base
	Err       error
}

// hybridConfigs returns baseline, SW-trigger-128, and SPEAR-128: the
// paper's central claim is that hardware triggering removes the software
// spawn overhead.
func hybridConfigs() []cpu.Config {
	return []cpu.Config{cpu.BaselineConfig(), cpu.SoftwareTriggerConfig(128), cpu.SPEARConfig(128, false)}
}

// Hybrid reads the hybridConfigs machines of every kernel from the report.
func Hybrid(rep *Report) []HybridRow {
	rows := make([]HybridRow, 0, len(rep.Kernels))
	for _, name := range rep.Kernels {
		res, err := rep.results(name, configNames(hybridConfigs())...)
		if err != nil {
			rows = append(rows, HybridRow{Name: name, Err: err})
			continue
		}
		base := res[0].IPC
		rows = append(rows, HybridRow{
			Name:      name,
			Base:      base,
			SWTrigger: res[1].IPC / base,
			Spear:     res[2].IPC / base,
		})
	}
	return rows
}

// RenderHybrid formats the triggering comparison.
func RenderHybrid(rows []HybridRow) string {
	t := stats.NewTable("benchmark", "base IPC", "SW-trigger", "SPEAR-128")
	var sw, sp []float64
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, r.Base, r.SWTrigger, r.Spear)
		sw = append(sw, r.SWTrigger)
		sp = append(sp, r.Spear)
	}
	t.AddSeparator()
	t.AddRow("average", "", stats.Mean(sw), stats.Mean(sp))
	return fmt.Sprintf("Hybrid claim: software-spawned vs hardware-triggered pre-execution (normalized IPC)\n%s", t.String())
}

// RenderMotivation formats the comparison.
func RenderMotivation(rows []MotivationRow) string {
	t := stats.NewTable("benchmark", "base IPC", "stride-2", "SPEAR-128", "stride prefetches")
	var sd, sp []float64
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, r.Base, r.Stride, r.Spear, r.Prefetches)
		sd = append(sd, r.Stride)
		sp = append(sp, r.Spear)
	}
	t.AddSeparator()
	t.AddRow("average", "", stats.Mean(sd), stats.Mean(sp), "")
	return fmt.Sprintf("Motivation: conventional stride prefetching vs pre-execution (normalized IPC)\n%s", t.String())
}
