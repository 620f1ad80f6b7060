package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spear/internal/cpu"
	"spear/internal/mem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleReport is a fixed synthetic sweep; the golden files lock the JSON
// and CSV wire formats without depending on simulator timing.
func sampleReport() *Report {
	res := &cpu.Result{
		Config:          "SPEAR-128",
		Cycles:          1000,
		AvgIFQOccupancy: 64.25,
		MainCommitted:   1500,
		PCommitted:      120,
		IPC:             1.5,
		CondBranches:    100,
		BranchHits:      95,
		Mispredicts:     5,
		BranchRatio:     0.95,
		IPB:             15,
		L1D: mem.CacheStats{
			Accesses: [mem.NumTids]uint64{400, 50},
			Misses:   [mem.NumTids]uint64{20, 30},
			Evicted:  10,
		},
		L2: mem.CacheStats{
			Accesses: [mem.NumTids]uint64{20, 30},
			Misses:   [mem.NumTids]uint64{8, 12},
		},
		Triggers:      4,
		SessionsDone:  3,
		Extracted:     48,
		LiveInCopies:  6,
		PrefetchLoads: 30,
		Prefetch: mem.PrefetchStats{
			PrefetchClass: mem.PrefetchClass{Fills: 30, Timely: 20, Late: 6, Useless: 3, Harmful: 1},
			PerPC: []mem.PrefetchPC{
				{PC: 7, PrefetchClass: mem.PrefetchClass{Fills: 30, Timely: 20, Late: 6, Useless: 3, Harmful: 1}},
			},
		},
		Intervals: []cpu.IntervalSample{
			{Cycle: 500, Cycles: 500, Committed: 800, PCommitted: 60, IPC: 1.6,
				IFQOccupancy: 70.5, RUUOccupancy: 40.25, L1DMissRate: 0.125,
				L2MissRate: 0.4, ActiveFrac: 0.5, PCommitShare: 0.0697674418604651, Triggers: 2},
			{Cycle: 1000, Cycles: 500, Committed: 700, PCommitted: 60, IPC: 1.4,
				IFQOccupancy: 58, RUUOccupancy: 38.75, L1DMissRate: 0.0625,
				L2MissRate: 0.25, ActiveFrac: 0.25, PCommitShare: 0.0789473684210526, Triggers: 2},
		},
		FinalStateHash: 0x1234_5678_9ABC_DEF0,
	}
	return &Report{
		Schema:     ReportSchema,
		Experiment: "sweep",
		Machines:   []string{"baseline", "SPEAR-128"},
		Kernels:    []string{"mcf", "broken"},
		Rows: []ReportRow{
			{Kernel: "mcf", Config: "baseline", Result: &cpu.Result{Config: "baseline", Cycles: 1500, MainCommitted: 1500, IPC: 1, BranchRatio: 1}},
			{Kernel: "mcf", Config: "SPEAR-128", Result: res},
			{Kernel: "broken", Error: "harness: prepare broken: no such kernel"},
		},
	}
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", name, got, want)
	}
}

func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.golden.json", buf.Bytes())
}

func TestReportCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "report.golden.csv", buf.Bytes())
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("report did not survive the JSON round trip:\ngot  %+v\nwant %+v", back, rep)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadReport(strings.NewReader(`{"schema":"other/9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadReport(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReportLookup(t *testing.T) {
	rep := sampleReport()
	if r := rep.Lookup("mcf", "SPEAR-128"); r == nil || r.Result == nil || r.Result.Cycles != 1000 {
		t.Errorf("lookup mcf/SPEAR-128 = %+v", r)
	}
	// A preparation failure matches any config.
	if r := rep.Lookup("broken", "baseline"); r == nil || r.Error == "" {
		t.Errorf("lookup broken/baseline = %+v", r)
	}
	if r := rep.Lookup("nonesuch", "baseline"); r != nil {
		t.Errorf("lookup of unknown kernel = %+v", r)
	}
}

// TestSweepReportReproducesFigure6 is the acceptance criterion, widened
// to every view: each figure and table rendered from the report read back
// from its JSON must match the one rendered from the in-memory report
// byte for byte.
func TestSweepReportReproducesFigure6(t *testing.T) {
	rep := viewsReport(t)
	pairs := map[string]bool{}
	for _, row := range rep.Rows {
		if pairs[row.Kernel+"/"+row.Config] {
			t.Errorf("%s on %s swept twice", row.Kernel, row.Config)
		}
		pairs[row.Kernel+"/"+row.Config] = true
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Views() {
		t.Run(v.Name, func(t *testing.T) {
			got, want := v.Render(back), v.Render(rep)
			if got != want {
				t.Errorf("report-derived view differs from the in-memory one:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if strings.Contains(want, "ERROR") {
				t.Errorf("clean sweep renders an error:\n%s", want)
			}
		})
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvBuf.String(), "\n"); lines != len(rep.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(rep.Rows)+1)
	}
}
