package cpu

import (
	"math/big"
	"testing"

	"spear/internal/perf"
)

func TestTimingDisabledByDefault(t *testing.T) {
	p := assemble(t, corePrograms["counted loop"])
	res, err := Run(p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing != nil {
		t.Fatalf("Timing populated without Config.Perf: %+v", res.Timing)
	}
}

// TestTimingCoverage pins the acceptance criterion: the per-stage
// buckets account for (nearly) all of the run loop's host time — the
// "book" bucket exists precisely so begin/end-of-cycle bookkeeping is
// attributed rather than leaking.
func TestTimingCoverage(t *testing.T) {
	p := compileSPEAR(t, 61, 62)
	cfg := SPEARConfig(128, false)
	reg := perf.NewRegistry()
	cfg.Perf = reg
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm == nil {
		t.Fatal("Config.Perf set but Result.Timing nil")
	}
	if tm.WallNanos == 0 || tm.LoopNanos == 0 || tm.LoopNanos > tm.WallNanos {
		t.Fatalf("wall/loop nanos inconsistent: wall=%d loop=%d", tm.WallNanos, tm.LoopNanos)
	}
	sum := tm.StageSum()
	if sum == 0 {
		t.Fatal("no stage time accumulated")
	}
	if float64(sum) < 0.9*float64(tm.LoopNanos) {
		t.Errorf("stage buckets cover %d of %d loop ns (%.1f%%), want >=90%%",
			sum, tm.LoopNanos, 100*float64(sum)/float64(tm.LoopNanos))
	}
	if sum > tm.LoopNanos {
		// Clock reads between stages are inside the loop, so the sum can
		// never exceed the loop time.
		t.Errorf("stage sum %d exceeds loop time %d", sum, tm.LoopNanos)
	}

	// The registry's whole-run counters must agree with the Result.
	snap := reg.Snapshot()
	byName := map[string]uint64{}
	for _, c := range snap.Counters {
		byName[c.Name] = c.Value
	}
	if byName["cpu.cycles"] != res.Cycles {
		t.Errorf("cpu.cycles = %d, run took %d", byName["cpu.cycles"], res.Cycles)
	}
	if byName["cpu.instrs"] != res.MainCommitted {
		t.Errorf("cpu.instrs = %d, run committed %d", byName["cpu.instrs"], res.MainCommitted)
	}
	if byName["cpu.run.count"] != 1 {
		t.Errorf("cpu.run.count = %d, want 1", byName["cpu.run.count"])
	}
	var ctrSum uint64
	for _, st := range tm.Stages {
		got := byName["cpu.stage."+st.Name+".ns"]
		if got != st.Nanos {
			t.Errorf("registry cpu.stage.%s.ns = %d, Timing says %d", st.Name, got, st.Nanos)
		}
		ctrSum += got
	}
	if ctrSum != sum {
		t.Errorf("registry stage counters sum to %d, Timing to %d", ctrSum, sum)
	}
}

// TestSplitWindow checks that a window's nanos are split over the stages
// exactly and in proportion to their sampled nanos.
func TestSplitWindow(t *testing.T) {
	cases := []struct {
		name    string
		window  uint64
		sampled [numStages]uint64
	}{
		{"even", 800, [numStages]uint64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"uneven", 1_000_003, [numStages]uint64{stgBook: 7, stgCommit: 3, stgIssue: 11, stgFetch: 5}},
		{"one stage", 12345, [numStages]uint64{stgExtract: 99}},
		{"window below samples", 5, [numStages]uint64{310, 20, 4000, 170, 90, 60, 3, 500}},
		{"huge", 1 << 62, [numStages]uint64{1 << 40, 3, 1 << 41, 5, 7, 11, 13, 1 << 39}},
	}
	for _, c := range cases {
		got := splitWindow(c.window, &c.sampled)
		var sum, total uint64
		for i := range got {
			sum += got[i]
			total += c.sampled[i]
		}
		if sum != c.window {
			t.Errorf("%s: stages sum to %d, window is %d", c.name, sum, c.window)
		}
		for i := range got {
			// |got - window*sampled/total| < 1, in exact integers:
			// |got*total - window*sampled| < total.
			d := new(big.Int).Mul(new(big.Int).SetUint64(got[i]), new(big.Int).SetUint64(total))
			d.Sub(d, new(big.Int).Mul(new(big.Int).SetUint64(c.window), new(big.Int).SetUint64(c.sampled[i])))
			if d.Abs(d).Cmp(new(big.Int).SetUint64(total)) >= 0 {
				t.Errorf("%s: %s got %d ns, more than 1 ns from %d*%d/%d",
					c.name, stageNames[i], got[i], c.window, c.sampled[i], total)
			}
			if c.sampled[i] == 0 && got[i] != 0 {
				t.Errorf("%s: unsampled %s charged %d ns", c.name, stageNames[i], got[i])
			}
		}
	}

	// A window with no sampled cycle (a short final window) is book time.
	got := splitWindow(4242, &[numStages]uint64{})
	if want := ([numStages]uint64{stgBook: 4242}); got != want {
		t.Errorf("unsampled window split %v, want %v", got, want)
	}
}

// BenchmarkStepUntimed measures the hot loop with perf off, where every
// lap is one untaken branch; BenchmarkStepTimed is the same run with
// sampled stage timing on, so the pair prices the timing itself.
func BenchmarkStepUntimed(b *testing.B) {
	p := benchProgram(b)
	cfg := fastConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepTimed(b *testing.B) {
	p := benchProgram(b)
	cfg := fastConfig()
	cfg.Perf = perf.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
