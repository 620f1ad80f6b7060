package cpu_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"spear/internal/asm"
	"spear/internal/cpu"
	"spear/internal/harness"
	"spear/internal/obs"
	"spear/internal/perf"
	"spear/internal/prog"
	"spear/internal/workloads"
)

// skipEventCycles bounds the event stream each run records: every live
// cycle emits several events, and this window already spans thousands of
// skipped spans on the memory-bound kernels.
const skipEventCycles = 20_000

// TestSkipDoesNotChangeSimulation pins "skipping never perturbs": on
// every paper kernel and every committed corpus program, under every
// StandardConfigs machine, the whole Result (Timing aside) and the event
// stream of the first skipEventCycles cycles are the same with dead-cycle
// skipping on and off. MetricsInterval is a prime, so interval samples
// fall at cycles unrelated to the 64K-cycle poll windows and to the
// kernels' loop periods, and every per-cycle accumulator the jumps
// advance reaches Result through a sample. Under -short and the race
// detector it runs mcf and the corpus chase on two machines.
func TestSkipDoesNotChangeSimulation(t *testing.T) {
	progs, cfgs := skipPrograms(t), harness.StandardConfigs()
	if testing.Short() || cpu.RaceEnabled {
		cfgs = []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false)}
	}
	type pair struct {
		p   *prog.Program
		cfg cpu.Config
	}
	var pairs []pair
	for _, p := range progs {
		for _, cfg := range cfgs {
			pairs = append(pairs, pair{p, cfg})
		}
	}
	// The switch is package state, so runs overlap only within a batch of
	// one setting: each batch runs with skipping off, then on.
	batch := min(runtime.GOMAXPROCS(0), 4)
	runBatch := func(on bool, pairs []pair) []skipRun {
		defer cpu.SetSkipDeadCycles(on)()
		out := make([]skipRun, len(pairs))
		var wg sync.WaitGroup
		for i, pr := range pairs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = runSkipSetting(pr.p, pr.cfg)
			}()
		}
		wg.Wait()
		return out
	}
	var skipped, cycles uint64
	for len(pairs) > 0 {
		n := min(batch, len(pairs))
		offs, ons := runBatch(false, pairs[:n]), runBatch(true, pairs[:n])
		for i, pr := range pairs[:n] {
			off, on := offs[i], ons[i]
			t.Run(pr.p.Name+"/"+pr.cfg.Name, func(t *testing.T) {
				if off.err != nil || on.err != nil {
					t.Fatalf("runs failed: skipping off: %v; on: %v", off.err, on.err)
				}
				if off.skipped != 0 {
					t.Fatalf("skipped %d cycles with skipping off", off.skipped)
				}
				skipped += on.skipped
				cycles += on.res.Cycles
				if !reflect.DeepEqual(off.res, on.res) {
					t.Errorf("skipping changed the result: cycles %d → %d, committed %d → %d, avg IFQ %v → %v, %d → %d interval samples",
						off.res.Cycles, on.res.Cycles, off.res.MainCommitted, on.res.MainCommitted,
						off.res.AvgIFQOccupancy, on.res.AvgIFQOccupancy, len(off.res.Intervals), len(on.res.Intervals))
					for i := range min(len(off.res.Intervals), len(on.res.Intervals)) {
						if off.res.Intervals[i] != on.res.Intervals[i] {
							t.Errorf("first differing interval sample %d:\n off %+v\n on  %+v", i, off.res.Intervals[i], on.res.Intervals[i])
							break
						}
					}
				}
				if len(off.events) == 0 {
					t.Fatal("no events recorded")
				}
				if !reflect.DeepEqual(off.events, on.events) {
					i := 0
					for i < len(off.events) && i < len(on.events) && off.events[i] == on.events[i] {
						i++
					}
					t.Errorf("skipping changed the event stream (%d → %d events), first difference at event %d",
						len(off.events), len(on.events), i)
				}
			})
		}
		pairs = pairs[n:]
	}
	if skipped == 0 {
		t.Errorf("no cycle skipped over %d simulated cycles", cycles)
	}
	t.Logf("skipped %d of %d cycles", skipped, cycles)
}

// skipRun is one run's result with Timing cleared, its recorded events,
// and the skipped-cycle count from the run's registry.
type skipRun struct {
	res     *cpu.Result
	events  []obs.Event
	skipped uint64
	err     error
}

// runSkipSetting runs p under cfg with interval metrics, stage timing and
// an event collector on.
func runSkipSetting(p *prog.Program, cfg cpu.Config) skipRun {
	reg := perf.NewRegistry()
	col := &obs.Collector{}
	cfg.MetricsInterval = 997
	cfg.Perf = reg
	cfg.Events, cfg.EventCycles = col, skipEventCycles
	res, err := cpu.Run(p, cfg)
	if err != nil {
		return skipRun{err: err}
	}
	res.Timing = nil
	return skipRun{res: res, events: col.Events, skipped: reg.Counter("cpu.cycles.skipped").Value()}
}

// skipPrograms returns every paper kernel's SPEAR binary and every
// committed corpus program, or under -short and the race detector mcf's
// binary and the corpus chase.
func skipPrograms(t *testing.T) []*prog.Program {
	t.Helper()
	var progs []*prog.Program
	pattern := "*.spisa"
	if testing.Short() || cpu.RaceEnabled {
		k, _ := workloads.ByName("mcf")
		prep, err := harness.Prepare(*k, harness.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prep.Ref)
		pattern = "corpus_chase.spisa"
	} else {
		s, err := harness.NewSuiteContext(context.Background(), harness.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Prepared {
			progs = append(progs, p.Ref)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "harness", "testdata", "corpus", pattern))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	sort.Strings(files)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.Assemble(filepath.Base(path), string(src))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}
