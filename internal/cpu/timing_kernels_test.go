package cpu_test

import (
	"reflect"
	"testing"

	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/obs"
	"spear/internal/perf"
	"spear/internal/workloads"
)

// TestTimingDoesNotChangeSimulation pins "observation never perturbs":
// the whole Result, Timing aside, is the same with perf off, with
// sampled stage timing on, and with timing and an event collector on.
// mcf and art under SPEAR-128 run for many 64K-cycle windows, so the
// in-loop flushes and the final partial window are all exercised.
func TestTimingDoesNotChangeSimulation(t *testing.T) {
	for _, name := range []string{"mcf", "art"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown kernel %s", name)
			}
			prep, err := harness.Prepare(*k, harness.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			run := func(reg *perf.Registry, events obs.Writer) *cpu.Result {
				t.Helper()
				cfg := cpu.SPEARConfig(128, false)
				cfg.Perf = reg
				// The collector records the first two windows only: every
				// cycle emits several events.
				cfg.Events, cfg.EventCycles = events, 2<<16+1
				res, err := cpu.Run(prep.Ref, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			off := run(nil, nil)
			if off.Cycles <= 2<<16 {
				t.Fatalf("%s ran %d cycles; want more than two windows", name, off.Cycles)
			}
			on := run(perf.NewRegistry(), nil)
			onObs := run(perf.NewRegistry(), &obs.Collector{})
			if off.Timing != nil || on.Timing == nil || onObs.Timing == nil {
				t.Fatalf("Timing set on the wrong runs: off %v, on %v, on+obs %v",
					off.Timing != nil, on.Timing != nil, onObs.Timing != nil)
			}
			on.Timing, onObs.Timing = nil, nil
			if !reflect.DeepEqual(off, on) {
				t.Error("enabling perf timing changed the simulation result")
			}
			if !reflect.DeepEqual(off, onObs) {
				t.Error("enabling perf timing and an event collector changed the simulation result")
			}
		})
	}
}
