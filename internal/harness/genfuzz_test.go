package harness

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"spear/internal/cpu"
	"spear/internal/progen"
	"spear/internal/workloads"
)

// Integration of the property-based program generator (internal/progen)
// with the full harness stack: Prepare (profile + SPEAR compile),
// fault-injection containment, and the parallel/journal/resume sweep
// engine. cmd/spearfuzz drives the same pipeline at scale; these tests
// pin the harness-facing contracts in tier-1.

// annotatedGenSpec is a generated-program character the SPEAR compiler
// reliably annotates: a pointer chase over a working set twice the L2
// size, so the profiled train run crosses the miss threshold on many
// loads. (The presets keep their data cache-resident to stay fast, which
// is exactly why they compile to zero p-threads.)
func annotatedGenSpec() progen.Spec {
	spec := progen.Presets()["chase"]
	spec.DataBytes = 1 << 19
	spec.Budget = 1_600_000
	spec.Iters, spec.TrainIter = 500, 300
	return spec
}

// genOptions lowers the profiler's miss threshold to match generated
// programs' instruction counts (the default is tuned for the hand
// kernels' working sets).
func genOptions() Options {
	opts := DefaultOptions()
	opts.Compiler.Profile.MissThreshold = 256
	return opts
}

// annotatedGen memoizes the prepared annotated generated kernel
// (preparation profiles ~1M train instructions, which dominates).
var annotatedGen *Prepared

func annotatedGenPrepared(t *testing.T) *Prepared {
	t.Helper()
	if annotatedGen == nil {
		k := workloads.Generated(1, annotatedGenSpec())
		p, err := Prepare(k, genOptions())
		if err != nil {
			t.Fatal(err)
		}
		annotatedGen = p
	}
	return annotatedGen
}

// TestGeneratedDifferentialSmoke is the in-tree slice of the spearfuzz
// loop: random specs, full preparation, and a differential check of
// every standard machine against the emulator. The nightly fuzz job runs
// hundreds of seeds; this keeps a handful in tier-1 so a differential
// regression fails fast without the fuzzer.
func TestGeneratedDifferentialSmoke(t *testing.T) {
	seeds, cfgs := int64(5), StandardConfigs()
	if testing.Short() || raceEnabled {
		seeds, cfgs = 2, []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false)}
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := progen.RandomSpec(seed)
			prep, err := Prepare(workloads.Generated(seed, spec), genOptions())
			if err != nil {
				t.Fatal(err)
			}
			res := progen.Check(prep.Ref, progen.CheckOptions{
				Configs:  cfgs,
				MaxInstr: uint64(spec.Budget) + 1000,
			})
			if res.Div != nil {
				t.Errorf("spec %s diverged: %v", spec, res.Div)
			}
		})
	}
}

// TestGeneratedAnnotatedContainment extends the fault-injection battery
// to generated programs: every fault class injected into an annotated
// generated kernel must leave the architectural state and commit count
// untouched (the containment invariant), exactly as for the hand-written
// kernels.
func TestGeneratedAnnotatedContainment(t *testing.T) {
	prep := annotatedGenPrepared(t)
	if len(prep.Ref.PThreads) == 0 {
		t.Fatal("annotated generated spec compiled to zero p-threads")
	}
	baseHash, baseCount, err := BaselineState(prep.Ref, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	classes := FaultClasses()
	if testing.Short() || raceEnabled {
		classes = classes[:1]
	}
	inj := NewInjector(7)
	cfg := cpu.SPEARConfig(128, false)
	for _, class := range classes {
		t.Run(string(class), func(t *testing.T) {
			injection, err := inj.Inject(prep.Ref, class)
			if err != nil {
				t.Fatal(err)
			}
			r := VerifyContainment(injection, cfg, baseHash, baseCount)
			if !r.Contained() {
				t.Errorf("%s (%s): containment violated (err %v, state %v, count %v)",
					class, r.Desc, r.Err, r.StateMatch, r.CountMatch)
			}
		})
	}
}

// TestGeneratedSweepByteIdentical drives generated kernels — addressed
// purely by their "gen:<seed>:<spec>" names, through the same ByName
// resolution every production consumer uses — through the sweep engine:
// serial, parallel, journaled, and resumed sweeps must all emit
// byte-identical reports.
func TestGeneratedSweepByteIdentical(t *testing.T) {
	tiny := progen.Presets()["tiny"]
	kernels := []string{
		workloads.Generated(3, tiny).Name,
		workloads.Generated(4, tiny).Name,
		workloads.Generated(5, tiny).Name,
	}
	cfgs := twoConfigs()
	newSuite := func(parallel int) *Suite {
		opts := genOptions()
		opts.Kernels = kernels
		opts.Parallel = parallel
		s, err := NewSuiteContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Failed) != 0 {
			t.Fatalf("generated kernels failed to prepare: %v", s.Failed)
		}
		return s
	}

	serial := reportBytes(t, newSuite(1).
		SweepReportContext(context.Background(), "gen-sweep", cfgs, nil))

	// Parallel with a journal.
	dir := t.TempDir()
	sj, err := OpenSweepJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel := reportBytes(t, newSuite(8).
		SweepReportContext(context.Background(), "gen-sweep", cfgs, sj))
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel journaled sweep differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}

	// Resume from the journal: every run replays, none re-executes, and
	// the report is still byte-identical.
	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	replayed, torn := rj.Replayed()
	if torn {
		t.Fatal("journal tail torn without a crash")
	}
	if want := len(kernels) * len(cfgs); replayed != want {
		t.Fatalf("journal replayed %d terminal runs, want %d", replayed, want)
	}
	resumed := reportBytes(t, newSuite(8).
		SweepReportContext(context.Background(), "gen-sweep", cfgs, rj))
	if !bytes.Equal(serial, resumed) {
		t.Errorf("resumed sweep differs from serial:\nserial:\n%s\nresumed:\n%s", serial, resumed)
	}
}
