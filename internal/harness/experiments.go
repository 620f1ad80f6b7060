package harness

import (
	"fmt"
	"slices"
	"strings"

	"spear/internal/cpu"
	"spear/internal/stats"
)

// Table1Row is one line of the benchmark inventory (the paper's Table 1,
// with our scaled-down instruction counts).
type Table1Row struct {
	Suite     string
	Name      string
	Instr     uint64
	DLoads    int
	PThreads  int
	Character string
}

// Table1 builds the benchmark inventory.
func (s *Suite) Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(s.Prepared))
	for _, p := range s.Prepared {
		rows = append(rows, Table1Row{
			Suite:     p.Kernel.Suite,
			Name:      p.Kernel.Name,
			Instr:     p.RefInstr,
			DLoads:    len(p.Report.DLoads),
			PThreads:  len(p.Ref.PThreads),
			Character: p.Kernel.Character,
		})
	}
	return rows
}

// RenderTable1 formats the inventory.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("suite", "name", "simulated instr", "d-loads", "p-threads")
	for _, r := range rows {
		t.AddRow(r.Suite, r.Name, fmt.Sprintf("%.1fM", float64(r.Instr)/1e6), r.DLoads, r.PThreads)
	}
	return "Table 1: benchmark inventory (scaled-down instruction counts)\n" + t.String()
}

// View is one figure or table of the evaluation, read from a sweep
// report: the machines it needs, the kernels it needs them on, and how it
// renders. A figure run is one sweep of the pairs its views need.
type View struct {
	Name string
	// Paper marks the views of the paper's evaluation, the set that
	// spearbench -experiment all renders.
	Paper   bool
	Configs []cpu.Config
	// Kernels restricts the view to these kernels (nil = every kernel).
	Kernels []string
	Render  func(*Report) string
}

// Views returns every report view, the paper's in the paper's order.
func Views() []View {
	return []View{
		{Name: "fig6", Paper: true, Configs: fig6Configs(), Render: func(rep *Report) string { return RenderFigure6(Figure6(rep)) }},
		{Name: "table3", Paper: true, Configs: fig6Configs(), Render: func(rep *Report) string { return RenderTable3(Table3(Figure6(rep))) }},
		{Name: "fig7", Paper: true, Configs: StandardConfigs(), Render: func(rep *Report) string { return RenderFigure7(Figure7(rep)) }},
		{Name: "fig8", Paper: true, Configs: fig6Configs(), Render: func(rep *Report) string { return RenderFigure8(Figure8(Figure6(rep))) }},
		{Name: "fig9", Paper: true, Configs: fig9Configs(), Kernels: Fig9Kernels, Render: func(rep *Report) string { return RenderFigure9(Figure9(rep)) }},
		{Name: "motivation", Configs: motivationConfigs(), Render: func(rep *Report) string { return RenderMotivation(Motivation(rep)) }},
		{Name: "hybrid", Configs: hybridConfigs(), Render: func(rep *Report) string { return RenderHybrid(Hybrid(rep)) }},
	}
}

// configNames returns the machine names of cfgs, in order.
func configNames(cfgs []cpu.Config) []string {
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	return names
}

// Fig6Row is one benchmark's normalized performance (baseline = 1.0).
// A non-nil Err marks a kernel whose runs failed or were skipped; the
// other rows of the sweep are still valid (partial-results mode).
type Fig6Row struct {
	Name     string
	Base     *cpu.Result
	Spear128 *cpu.Result
	Spear256 *cpu.Result
	Norm128  float64
	Norm256  float64
	Err      error
}

// fig6Configs returns the three machines of Figure 6, Table 3 and
// Figure 8: baseline, SPEAR-128, and SPEAR-256.
func fig6Configs() []cpu.Config {
	return []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false), cpu.SPEARConfig(256, false)}
}

// Figure6 reads the normalized-IPC rows of Figure 6 from a report that
// covers the fig6Configs machines. A kernel whose runs failed, were
// skipped, or are missing gets a row with Err set; the other rows stay
// valid (partial-results mode). Because float64 values survive the JSON
// round trip exactly, a report read back from disk renders the same
// table digit for digit.
func Figure6(rep *Report) []Fig6Row {
	rows := make([]Fig6Row, 0, len(rep.Kernels))
	for _, name := range rep.Kernels {
		row := Fig6Row{Name: name}
		res, err := rep.results(name, configNames(fig6Configs())...)
		if err != nil {
			row.Err = err
		} else {
			row.Base, row.Spear128, row.Spear256 = res[0], res[1], res[2]
			if row.Base.IPC > 0 {
				row.Norm128 = row.Spear128.IPC / row.Base.IPC
				row.Norm256 = row.Spear256.IPC / row.Base.IPC
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure6 formats the normalized-IPC series of Figure 6. Failed
// kernels render as error notes and are excluded from the averages.
func RenderFigure6(rows []Fig6Row) string {
	t := stats.NewTable("benchmark", "base IPC", "SPEAR-128", "SPEAR-256", "norm-128", "norm-256")
	var n128, n256 []float64
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, r.Base.IPC, r.Spear128.IPC, r.Spear256.IPC, r.Norm128, r.Norm256)
		n128 = append(n128, r.Norm128)
		n256 = append(n256, r.Norm256)
	}
	t.AddSeparator()
	t.AddRow("average", "", "", "", stats.Mean(n128), stats.Mean(n256))
	return fmt.Sprintf("Figure 6: normalized IPC (baseline = 1.0); mean speedup %.1f%% (128), %.1f%% (256)\n%s",
		stats.SpeedupPercent(stats.Mean(n128)), stats.SpeedupPercent(stats.Mean(n256)), t.String())
}

// Table3Row reports the longer-IFQ sensitivity against branch behaviour.
type Table3Row struct {
	Name        string
	Ratio256128 float64 // SPEAR-256 IPC / SPEAR-128 IPC
	BranchRatio float64 // baseline conditional-branch hit ratio
	IPB         float64
	Err         error
}

// Table3 derives the paper's Table 3 from the Figure 6 rows; failing
// kernels carry their error through.
func Table3(fig6 []Fig6Row) []Table3Row {
	rows := make([]Table3Row, 0, len(fig6))
	for _, r := range fig6 {
		if r.Err != nil {
			rows = append(rows, Table3Row{Name: r.Name, Err: r.Err})
			continue
		}
		row := Table3Row{
			Name:        r.Name,
			BranchRatio: r.Base.BranchRatio,
			IPB:         r.Base.IPB,
		}
		if r.Spear128.IPC > 0 {
			row.Ratio256128 = r.Spear256.IPC / r.Spear128.IPC
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	t := stats.NewTable("benchmark", "SPEAR-256/128", "branch hit ratio", "IPB")
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, fmt.Sprintf("%.2f", r.Ratio256128), fmt.Sprintf("%.4f", r.BranchRatio), fmt.Sprintf("%.2f", r.IPB))
	}
	return "Table 3: performance enhancement with a longer IFQ vs branch behaviour\n" + t.String()
}

// Fig7Row extends Figure 6 with the separate-functional-unit models.
type Fig7Row struct {
	Name      string
	Norm128   float64
	Norm256   float64
	NormSf128 float64
	NormSf256 float64
	Err       error
}

// Figure7 reads all five StandardConfigs machines of every kernel from
// the report; a kernel without all five results yields a row with Err
// set.
func Figure7(rep *Report) []Fig7Row {
	rows := make([]Fig7Row, 0, len(rep.Kernels))
	for _, name := range rep.Kernels {
		row := Fig7Row{Name: name}
		res, err := rep.results(name, configNames(StandardConfigs())...)
		if err != nil {
			row.Err = err
		} else if base := res[0].IPC; base > 0 {
			row.Norm128 = res[1].IPC / base
			row.Norm256 = res[2].IPC / base
			row.NormSf128 = res[3].IPC / base
			row.NormSf256 = res[4].IPC / base
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderFigure7 formats the Figure 7 series.
func RenderFigure7(rows []Fig7Row) string {
	t := stats.NewTable("benchmark", "SPEAR-128", "SPEAR-256", "SPEAR.sf-128", "SPEAR.sf-256")
	var a, b, c, d []float64
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, r.Norm128, r.Norm256, r.NormSf128, r.NormSf256)
		a = append(a, r.Norm128)
		b = append(b, r.Norm256)
		c = append(c, r.NormSf128)
		d = append(d, r.NormSf256)
	}
	t.AddSeparator()
	t.AddRow("average", stats.Mean(a), stats.Mean(b), stats.Mean(c), stats.Mean(d))
	return fmt.Sprintf("Figure 7: normalized IPC with dedicated FUs; mean sf speedups %.1f%% (128), %.1f%% (256)\n%s",
		stats.SpeedupPercent(stats.Mean(c)), stats.SpeedupPercent(stats.Mean(d)), t.String())
}

// Fig8Row is one benchmark's main-thread L1D miss reduction.
type Fig8Row struct {
	Name         string
	BaseMisses   uint64
	Misses128    uint64
	Misses256    uint64
	Reduction128 float64 // percent
	Reduction256 float64
	Err          error
}

// Figure8 derives the main-thread demand-miss reduction from the Figure
// 6 rows; failing kernels carry their error through.
func Figure8(fig6 []Fig6Row) []Fig8Row {
	rows := make([]Fig8Row, 0, len(fig6))
	for _, r := range fig6 {
		if r.Err != nil {
			rows = append(rows, Fig8Row{Name: r.Name, Err: r.Err})
			continue
		}
		rows = append(rows, Fig8Row{
			Name:         r.Name,
			BaseMisses:   r.Base.MainL1Misses(),
			Misses128:    r.Spear128.MainL1Misses(),
			Misses256:    r.Spear256.MainL1Misses(),
			Reduction128: stats.ReductionPercent(r.Base.MainL1Misses(), r.Spear128.MainL1Misses()),
			Reduction256: stats.ReductionPercent(r.Base.MainL1Misses(), r.Spear256.MainL1Misses()),
		})
	}
	return rows
}

// RenderFigure8 formats the miss-reduction series.
func RenderFigure8(rows []Fig8Row) string {
	t := stats.NewTable("benchmark", "base misses", "SPEAR-128", "SPEAR-256", "red-128 %", "red-256 %")
	var a, b []float64
	for _, r := range rows {
		if r.Err != nil {
			t.AddSpanRow(r.Name, "ERROR: "+r.Err.Error())
			continue
		}
		t.AddRow(r.Name, r.BaseMisses, r.Misses128, r.Misses256,
			fmt.Sprintf("%.1f", r.Reduction128), fmt.Sprintf("%.1f", r.Reduction256))
		a = append(a, r.Reduction128)
		b = append(b, r.Reduction256)
	}
	t.AddSeparator()
	t.AddRow("average", "", "", "", fmt.Sprintf("%.1f", stats.Mean(a)), fmt.Sprintf("%.1f", stats.Mean(b)))
	return "Figure 8: main-thread L1D cache-miss reduction\n" + t.String()
}

// Fig9Point is one (latency, config) IPC sample.
type Fig9Point struct {
	MemLatency int
	L2Latency  int
	IPC        float64
}

// Fig9Series is one benchmark's latency sweep for the three machines.
type Fig9Series struct {
	Name     string
	Base     []Fig9Point
	Spear128 []Fig9Point
	Spear256 []Fig9Point
	Err      error // sweep aborted at the first failing latency point
}

// Fig9Latencies are the five latency configurations of Figure 9, from
// shortest (mem 40 / L2 4) to longest (mem 200 / L2 20). The middle point
// is the standard hierarchy of every other experiment.
var Fig9Latencies = [5][2]int{{4, 40}, {8, 80}, {12, 120}, {16, 160}, {20, 200}}

// Fig9Kernels are the six benchmarks the paper sweeps.
var Fig9Kernels = []string{"pointer", "update", "nbh", "dm", "mcf", "vpr"}

// fig9PointConfigs returns the fig6Configs machines at one Figure 9
// latency point. A variant is named after its machine and memory latency
// ("baseline@mem40"); at the standard latencies it is the standard
// machine itself, so Figure 9 shares those runs with Figure 6 instead of
// simulating them twice.
func fig9PointConfigs(lat [2]int) []cpu.Config {
	cfgs := fig6Configs()
	for i, c := range cfgs {
		cfgs[i].Hierarchy = c.Hierarchy.WithLatencies(lat[0], lat[1])
		if cfgs[i].Hierarchy != c.Hierarchy {
			cfgs[i].Name = fmt.Sprintf("%s@mem%d", c.Name, lat[1])
		}
	}
	return cfgs
}

// fig9Configs returns the machines of every Fig9Latencies point,
// latency-major.
func fig9Configs() []cpu.Config {
	var out []cpu.Config
	for _, lat := range Fig9Latencies {
		out = append(out, fig9PointConfigs(lat)...)
	}
	return out
}

// Figure9 reads the memory-latency sweep of the Fig9Kernels the report
// covers. A series stops at its first latency point without all three
// results and carries that point's error.
func Figure9(rep *Report) []Fig9Series {
	var out []Fig9Series
	for _, name := range Fig9Kernels {
		if !slices.Contains(rep.Kernels, name) {
			continue // kernel not selected in this sweep
		}
		series := Fig9Series{Name: name}
		for _, lat := range Fig9Latencies {
			res, err := rep.results(name, configNames(fig9PointConfigs(lat))...)
			if err != nil {
				// Keep the points gathered so far and mark the series.
				series.Err = err
				break
			}
			pt := func(r *cpu.Result) Fig9Point {
				return Fig9Point{MemLatency: lat[1], L2Latency: lat[0], IPC: r.IPC}
			}
			series.Base = append(series.Base, pt(res[0]))
			series.Spear128 = append(series.Spear128, pt(res[1]))
			series.Spear256 = append(series.Spear256, pt(res[2]))
		}
		out = append(out, series)
	}
	return out
}

// Fig9Summary computes the average performance loss at the longest latency
// relative to the shortest, per machine (the paper's 48.5%/39.7%/38.4%).
type Fig9Summary struct {
	BaseLoss     float64
	Spear128Loss float64
	Spear256Loss float64
}

// SummarizeFigure9 derives the long-latency degradation summary.
func SummarizeFigure9(series []Fig9Series) Fig9Summary {
	loss := func(pts []Fig9Point) float64 {
		if len(pts) == 0 || pts[0].IPC == 0 {
			return 0
		}
		return (1 - pts[len(pts)-1].IPC/pts[0].IPC) * 100
	}
	var a, b, c []float64
	for _, sr := range series {
		if sr.Err != nil {
			continue // incomplete sweep; excluding it keeps the averages honest
		}
		a = append(a, loss(sr.Base))
		b = append(b, loss(sr.Spear128))
		c = append(c, loss(sr.Spear256))
	}
	return Fig9Summary{BaseLoss: stats.Mean(a), Spear128Loss: stats.Mean(b), Spear256Loss: stats.Mean(c)}
}

// RenderFigure9 formats the latency-tolerance sweep.
func RenderFigure9(series []Fig9Series) string {
	var b strings.Builder
	b.WriteString("Figure 9: IPC under memory latencies 40..200 (L2 4..20)\n")
	for _, sr := range series {
		t := stats.NewTable("machine", "mem=40", "mem=80", "mem=120", "mem=160", "mem=200")
		addRow := func(name string, pts []Fig9Point) {
			cells := []any{name}
			for _, p := range pts {
				cells = append(cells, p.IPC)
			}
			t.AddRow(cells...)
		}
		addRow("baseline", sr.Base)
		addRow("SPEAR-128", sr.Spear128)
		addRow("SPEAR-256", sr.Spear256)
		fmt.Fprintf(&b, "\n[%s]\n%s", sr.Name, t.String())
		if sr.Err != nil {
			fmt.Fprintf(&b, "ERROR (sweep incomplete): %v\n", sr.Err)
		}
	}
	sum := SummarizeFigure9(series)
	fmt.Fprintf(&b, "\naverage loss at longest vs shortest latency: baseline %.1f%%, SPEAR-128 %.1f%%, SPEAR-256 %.1f%%\n",
		sum.BaseLoss, sum.Spear128Loss, sum.Spear256Loss)
	return b.String()
}
