package cpu

import (
	"strings"
	"testing"

	"spear/internal/obs"
)

func TestTraceEmitsPipelineEvents(t *testing.T) {
	p := compileSPEAR(t, 41, 42)
	cfg := SPEARConfig(128, false)
	var buf strings.Builder
	cfg.Events, cfg.EventCycles = obs.NewText(&buf), 4000
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{obs.KindFetch.String(), obs.KindDispatch.String(), obs.KindExtract.String(),
		obs.KindTrigger.String(), obs.KindCommit.String(), "[marked]"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q events", want)
		}
	}
	if len(out) == 0 {
		t.Fatal("empty trace")
	}
}

func TestTraceBoundedByTraceCycles(t *testing.T) {
	p := assemble(t, corePrograms["counted loop"])
	cfg := fastConfig()
	var small, large strings.Builder
	cfg.Events, cfg.EventCycles = obs.NewText(&small), 10
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Events, cfg.EventCycles = obs.NewText(&large), 100
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	if small.Len() >= large.Len() {
		t.Errorf("trace did not grow with EventCycles: %d vs %d bytes", small.Len(), large.Len())
	}
}

func TestTraceDoesNotChangeTiming(t *testing.T) {
	p := compileSPEAR(t, 43, 44)
	cfg := SPEARConfig(128, false)
	r1, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	cfg.Events, cfg.EventCycles = obs.NewText(&buf), 1000
	r2, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Extracted != r2.Extracted {
		t.Error("enabling the trace changed simulation results")
	}
}

func TestAvgIFQOccupancyReported(t *testing.T) {
	p := pointerishKernel(t, 55)
	res, err := Run(p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgIFQOccupancy <= 0 || res.AvgIFQOccupancy > float64(fastConfig().IFQSize) {
		t.Errorf("average IFQ occupancy %v out of range", res.AvgIFQOccupancy)
	}
	// A memory-bound kernel keeps the queue deep (that is what makes the
	// trigger condition hold).
	if res.AvgIFQOccupancy < 32 {
		t.Errorf("occupancy %v suspiciously low for a memory-bound kernel", res.AvgIFQOccupancy)
	}
}
