package harness

import (
	"context"
	"strings"
	"testing"

	"spear/internal/workloads"
)

// smallSuite prepares a two-kernel suite shared by the tests in this file
// (preparation compiles the kernels, which dominates test time), and
// smallReport is its one sweep of every pair the views read.
var (
	smallSuite  *Suite
	smallReport *Report
)

func suite(t *testing.T) *Suite {
	t.Helper()
	if smallSuite == nil {
		opts := DefaultOptions()
		opts.Kernels = []string{"mcf", "field"}
		opts.Parallel = 4
		s, err := NewSuiteContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		smallSuite = s
	}
	return smallSuite
}

func viewsReport(t *testing.T) *Report {
	t.Helper()
	if smallReport == nil {
		smallReport = suite(t).SweepViews(context.Background(), "views", Views())
	}
	return smallReport
}

func TestNewSuiteRejectsUnknownKernel(t *testing.T) {
	opts := DefaultOptions()
	opts.Kernels = []string{"nonesuch"}
	if _, err := NewSuiteContext(context.Background(), opts); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestPrepare(t *testing.T) {
	s := suite(t)
	if len(s.Prepared) != 2 {
		t.Fatalf("prepared %d kernels", len(s.Prepared))
	}
	for _, p := range s.Prepared {
		if p.RefInstr == 0 {
			t.Errorf("%s: zero instruction count", p.Kernel.Name)
		}
		if err := p.Ref.Validate(); err != nil {
			t.Errorf("%s: invalid ref binary: %v", p.Kernel.Name, err)
		}
	}
	// mcf must be annotated; field must not (its misses are sub-threshold).
	for _, p := range s.Prepared {
		switch p.Kernel.Name {
		case "mcf":
			if len(p.Ref.PThreads) == 0 {
				t.Error("mcf compiled without p-threads")
			}
		case "field":
			if len(p.Ref.PThreads) != 0 {
				t.Error("field unexpectedly has p-threads")
			}
		}
	}
}

// TestRunKeySeparatesLatencyVariants pins that a latency variant never
// shares a run key (and so a journal record or report row) with the
// standard machine, while Figure 9's default-latency point is the
// standard machine itself.
func TestRunKeySeparatesLatencyVariants(t *testing.T) {
	s := tinySuite(t, tinyOptions(), "tiny")
	p := s.Prepared[0]
	for i, cfg := range fig6Configs() {
		std := s.runKey(p, cfg)
		for _, lat := range Fig9Latencies {
			v := fig9PointConfigs(lat)[i]
			isStd := lat == [2]int{cfg.Hierarchy.L2.HitLatency, cfg.Hierarchy.MemLatency}
			if shared := s.runKey(p, v) == std; shared != isStd {
				t.Errorf("%s at mem %d: run key shared with the standard machine = %v, want %v", cfg.Name, lat[1], shared, isStd)
			}
			if sameName := v.Name == cfg.Name; sameName != isStd {
				t.Errorf("%s at mem %d: variant named %q", cfg.Name, lat[1], v.Name)
			}
		}
		// Even under the machine's own name, other latencies key apart.
		renamed := cfg
		renamed.Hierarchy = renamed.Hierarchy.WithLatencies(20, 200)
		if s.runKey(p, renamed) == std {
			t.Errorf("%s: latency variant collided with the default run key", cfg.Name)
		}
	}
}

func TestFigure6AndDerivedTables(t *testing.T) {
	rows := Figure6(viewsReport(t))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Base.IPC <= 0 {
			t.Errorf("%s: non-positive baseline IPC", r.Name)
		}
		if r.Norm128 <= 0 || r.Norm256 <= 0 {
			t.Errorf("%s: non-positive normalized IPC", r.Name)
		}
		switch r.Name {
		case "mcf":
			if r.Norm128 <= 1.05 {
				t.Errorf("mcf SPEAR-128 should clearly win, got %.3f", r.Norm128)
			}
		case "field":
			if r.Norm128 < 0.95 || r.Norm128 > 1.05 {
				t.Errorf("field should be ~1.0, got %.3f", r.Norm128)
			}
		}
	}
	out := RenderFigure6(rows)
	for _, want := range []string{"Figure 6", "mcf", "field", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}

	t3 := Table3(rows)
	if len(t3) != 2 {
		t.Fatal("table 3 rows wrong")
	}
	for _, r := range t3 {
		if r.BranchRatio <= 0 || r.BranchRatio > 1 {
			t.Errorf("%s: branch ratio %v", r.Name, r.BranchRatio)
		}
		if r.IPB <= 0 {
			t.Errorf("%s: IPB %v", r.Name, r.IPB)
		}
	}
	if !strings.Contains(RenderTable3(t3), "branch hit ratio") {
		t.Error("table 3 render incomplete")
	}

	f8 := Figure8(rows)
	for _, r := range f8 {
		if r.Name == "mcf" && r.Reduction128 <= 0 {
			t.Errorf("mcf miss reduction %v, want positive", r.Reduction128)
		}
		if r.Name == "field" && r.Reduction128 != 0 {
			t.Errorf("field miss reduction %v, want 0", r.Reduction128)
		}
	}
	if !strings.Contains(RenderFigure8(f8), "miss reduction") {
		t.Error("figure 8 render incomplete")
	}
}

func TestTable1(t *testing.T) {
	s := suite(t)
	rows := s.Table1()
	if len(rows) != 2 {
		t.Fatal("table 1 rows wrong")
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "0.8M") {
		t.Errorf("table 1 render:\n%s", out)
	}
}

func TestFigure9Subset(t *testing.T) {
	series := Figure9(viewsReport(t))
	// Only mcf of the Fig9 kernel list is in this suite.
	if len(series) != 1 || series[0].Name != "mcf" {
		t.Fatalf("series = %+v", series)
	}
	sr := series[0]
	if len(sr.Base) != 5 || len(sr.Spear128) != 5 || len(sr.Spear256) != 5 {
		t.Fatal("missing latency points")
	}
	// IPC must fall monotonically with latency for the baseline.
	for i := 1; i < len(sr.Base); i++ {
		if sr.Base[i].IPC >= sr.Base[i-1].IPC {
			t.Errorf("baseline IPC not decreasing: %v", sr.Base)
		}
	}
	// SPEAR must beat the baseline at every point (mcf is the best case).
	for i := range sr.Base {
		if sr.Spear128[i].IPC <= sr.Base[i].IPC {
			t.Errorf("SPEAR-128 below baseline at mem=%d", sr.Base[i].MemLatency)
		}
	}
	sum := SummarizeFigure9(series)
	if sum.BaseLoss <= 0 || sum.BaseLoss >= 100 {
		t.Errorf("baseline loss %v", sum.BaseLoss)
	}
	// SPEAR tolerates the latency better than the baseline.
	if sum.Spear256Loss >= sum.BaseLoss {
		t.Errorf("SPEAR-256 loss %.1f not below baseline %.1f", sum.Spear256Loss, sum.BaseLoss)
	}
	if !strings.Contains(RenderFigure9(series), "average loss") {
		t.Error("figure 9 render incomplete")
	}
}

func TestMotivation(t *testing.T) {
	rows := Motivation(viewsReport(t))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Name == "mcf" {
			if r.Spear <= r.Stride {
				t.Errorf("SPEAR (%.3f) should beat stride prefetching (%.3f) on mcf", r.Spear, r.Stride)
			}
		}
	}
	if !strings.Contains(RenderMotivation(rows), "stride") {
		t.Error("motivation render incomplete")
	}
}

func TestHybrid(t *testing.T) {
	rows := Hybrid(viewsReport(t))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Software triggering must never beat hardware triggering by a
		// meaningful margin (it pays strictly more overhead).
		if r.SWTrigger > 1.05*r.Spear {
			t.Errorf("%s: SW-trigger %.3f beats SPEAR %.3f", r.Name, r.SWTrigger, r.Spear)
		}
	}
	if !strings.Contains(RenderHybrid(rows), "SW-trigger") {
		t.Error("hybrid render incomplete")
	}
}

func TestStandardConfigs(t *testing.T) {
	cfgs := StandardConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"baseline", "SPEAR-128", "SPEAR-256", "SPEAR.sf-128", "SPEAR.sf-256"} {
		if !names[want] {
			t.Errorf("missing config %s", want)
		}
	}
}

func TestPrepareUsesDistinctInputs(t *testing.T) {
	k, _ := workloads.ByName("mcf")
	prep, err := Prepare(*k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	train, _ := k.Build(workloads.Train)
	// The prepared binary must carry the reference data, not the
	// training data the compiler profiled.
	if len(prep.Ref.Data) == 0 || len(train.Data) == 0 {
		t.Fatal("missing data images")
	}
	same := true
	a, b := prep.Ref.Data[0].Bytes, train.Data[0].Bytes
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("prepared binary still carries the training input")
	}
}
