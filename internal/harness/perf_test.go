package harness

import (
	"context"
	"testing"

	"spear/internal/cpu"
	"spear/internal/journal"
	"spear/internal/perf"
)

// TestSweepWithPerfObservability runs a journaled sweep with the perf
// registry attached end to end and checks the whole surface: Result
// rows carry Timing, harness spans and journal I/O counters accumulate,
// and the slowest-run scan names a real pair.
func TestSweepWithPerfObservability(t *testing.T) {
	base := suite(t)
	s := &Suite{Opts: base.Opts, Prepared: base.Prepared, Failed: map[string]error{}}
	s.cache = map[string]runOutcome{}
	reg := perf.NewRegistry()
	s.Opts.Perf = reg

	dir := t.TempDir()
	j, err := OpenSweepJournalConfig(dir, false, SweepJournalConfig{Perf: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []cpu.Config{cpu.BaselineConfig()}
	rep := s.SweepReportContext(context.Background(), "perf-test", cfgs, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, row := range rep.Rows {
		if row.Result == nil {
			t.Fatalf("%s on %s: no result (%s%s)", row.Kernel, row.Config, row.Error, row.Skipped)
		}
		if row.Result.Timing == nil {
			t.Errorf("%s on %s: perf-enabled run has no Timing", row.Kernel, row.Config)
		} else if sum := row.Result.Timing.StageSum(); float64(sum) < 0.9*float64(row.Result.Timing.LoopNanos) {
			t.Errorf("%s on %s: stage buckets cover %d of %d loop ns, want >=90%%",
				row.Kernel, row.Config, sum, row.Result.Timing.LoopNanos)
		}
	}

	snap := reg.Snapshot()
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	spans := map[string]perf.SpanValue{}
	for _, sv := range snap.Spans {
		spans[sv.Name] = sv
	}
	if spans["harness.sweep"].Count != 1 {
		t.Errorf("harness.sweep span count = %d, want 1", spans["harness.sweep"].Count)
	}
	wantRuns := uint64(len(rep.Rows))
	if spans["harness.run"].Count != wantRuns {
		t.Errorf("harness.run span count = %d, want %d", spans["harness.run"].Count, wantRuns)
	}
	if counters["cpu.run.count"] != wantRuns {
		t.Errorf("cpu.run.count = %d, want %d", counters["cpu.run.count"], wantRuns)
	}
	// Two records per run (started + done) plus the header commit.
	if counters["journal.commits"] == 0 || counters["journal.bytes"] == 0 || counters["journal.fsync.ns"] == 0 {
		t.Errorf("journal I/O counters empty: %+v", counters)
	}

	kernel, config, dur, ok := s.SlowestRun()
	if !ok || kernel == "" || config == "" || dur <= 0 {
		t.Errorf("SlowestRun = %q %q %v %v", kernel, config, dur, ok)
	}

	// The journal now carries timestamps: replaying it yields duration
	// aggregates for the progress/ETA view.
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DoneDurations) != len(rep.Rows) {
		t.Errorf("replay found %d run durations, want %d", len(st.DoneDurations), len(rep.Rows))
	}
	if st.FirstStart == 0 || st.LastEvent < st.FirstStart {
		t.Errorf("replay timestamps inconsistent: first=%d last=%d", st.FirstStart, st.LastEvent)
	}
	for _, d := range st.DoneDurations {
		if d <= 0 {
			t.Errorf("non-positive run duration %d", d)
		}
	}
}

// TestRunKeyIgnoresPerfRegistry pins that attaching a perf registry
// never changes a run's journal identity: resumed sweeps with and
// without observability must hit the same records.
func TestRunKeyIgnoresPerfRegistry(t *testing.T) {
	s := suite(t)
	p := s.Prepared[0]
	cfg := cpu.BaselineConfig()
	k1 := s.runKey(p, cfg)
	cfg.Perf = perf.NewRegistry()
	k2 := s.runKey(p, cfg)
	if k1 != k2 {
		t.Errorf("perf registry changed the run key: %s vs %s", k1, k2)
	}
}
