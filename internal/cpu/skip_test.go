package cpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"spear/internal/prog"
	"spear/internal/spearcc"
)

// runSkip runs p under cfg with dead-cycle skipping on or off and returns
// the result, the cycles skipped and the run's error.
func runSkip(t *testing.T, p *prog.Program, cfg Config, skip bool) (*Result, uint64, error) {
	t.Helper()
	s, err := newSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.skip = skip
	if err := s.runLoop(); err != nil {
		return nil, s.skipped, err
	}
	res, err := s.finish()
	return res, s.skipped, err
}

// chaseSPEAR compiles the serial chase kernel with its p-thread, once per
// test binary. The p-thread's live-in is the chase pointer, so every
// trigger's drain waits on a load that misses to DRAM.
func chaseSPEAR(t *testing.T) *prog.Program {
	t.Helper()
	if chaseProg == nil {
		opts := spearcc.DefaultOptions()
		opts.Profile.MaxInstr = 500_000
		p, _, err := spearcc.Compile(chaseKernel(t, 100), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.PThreads) == 0 {
			t.Fatal("no p-thread built for the chase")
		}
		p.Data = chaseKernel(t, 200).Data
		chaseProg = p
	}
	return chaseProg
}

var chaseProg *prog.Program

// TestSkipSessionSettings compares whole results with skipping on and off
// under trigger and session settings the standard machines do not use, on
// a gather whose live-ins are ready early and, except under -short and the
// race detector, on the chase. A zero-cycle drain arms with the drain
// already over, so a trigger whose live-ins have no producer in flight
// goes to the copy on the next cycle: that cycle is not idle. A session
// cycle budget kills sessions at a cycle a jump must not cross.
func TestSkipSessionSettings(t *testing.T) {
	progs := map[string]*prog.Program{"gather": compileSPEAR(t, 123, 456)}
	if !testing.Short() && !raceEnabled {
		// Millions of cycles, nearly all of them stepped with skipping off.
		progs["chase"] = chaseSPEAR(t)
	}
	settings := []struct {
		name        string
		swTrigger   bool
		drain       int
		cycleBudget uint64
	}{
		{"drain-0", false, 0, 0},
		{"drain-1", false, 1, 0},
		{"drain-5", false, 5, 0},
		{"sw-trigger-drain-0", true, 0, 0},
		{"cycle-budget-150", false, 2, 150},
		{"cycle-budget-2000", false, 2, 2000},
	}
	for name, p := range progs {
		for _, st := range settings {
			cfg := SPEARConfig(128, false)
			if st.swTrigger {
				// Fetch stalls for the spawn right after a trigger arms.
				cfg = SoftwareTriggerConfig(128)
			}
			cfg.TriggerDrainCycles = st.drain
			cfg.PSessionCycleBudget = st.cycleBudget
			cfg.MetricsInterval = 997
			off, _, err := runSkip(t, p, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			on, skipped, err := runSkip(t, p, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if skipped == 0 {
				t.Errorf("%s/%s: no cycle skipped", name, st.name)
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("%s/%s: skipping changed the result: cycles %d → %d, live-in copies %d → %d, budget faults %d → %d",
					name, st.name, off.Cycles, on.Cycles, off.LiveInCopies, on.LiveInCopies, off.PFault.Budget, on.PFault.Budget)
			}
		}
	}
}

// TestSkipDeadlockInDrainWait aborts a SPEAR run by MaxCycles in the
// middle of a trigger's drain wait: the trigger has passed its
// decode-latch drain and waits for a live-in producer, a load that misses
// to DRAM, so the cycles around the abort are skipped. The DeadlockError
// and its dump, whose session line prints the drain counter, must read
// the same as when every cycle is stepped.
func TestSkipDeadlockInDrainWait(t *testing.T) {
	p := chaseSPEAR(t)
	cfg := SPEARConfig(128, false)

	// Step cycle by cycle to a drain wait that has gone on for a while.
	s, err := newSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const deep = -20
	for !(s.mode == modeDrain && s.sess.drainLeft < deep) {
		if s.done() || s.cycle > 5_000_000 {
			t.Fatalf("no drain wait past drainLeft %d by cycle %d", deep, s.cycle)
		}
		s.stepCycle()
	}
	cfg.MaxCycles = s.cycle

	_, skippedOff, errOff := runSkip(t, p, cfg, false)
	_, skippedOn, errOn := runSkip(t, p, cfg, true)
	var off, on *DeadlockError
	if !errors.As(errOff, &off) || !errors.As(errOn, &on) {
		t.Fatalf("errors = %v / %v, want *DeadlockError from both runs", errOff, errOn)
	}
	if skippedOff != 0 || skippedOn == 0 {
		t.Fatalf("skipped %d cycles with skipping off and %d with it on; want 0 and > 0", skippedOff, skippedOn)
	}
	if off.Error() != on.Error() {
		t.Errorf("error with skipping: %v\nwithout: %v", on, off)
	}
	if off.Dump != on.Dump {
		t.Errorf("dump with skipping:\n%s\nwithout:\n%s", on.Dump, off.Dump)
	}
	if !strings.Contains(off.Dump, "mode=drain") || !strings.Contains(off.Dump, "drainLeft=-") {
		t.Errorf("dump does not show a drain wait:\n%s", off.Dump)
	}
}

// TestDrainWithoutProducersIsNotIdle builds a state the standard machines
// do not reach with the rest of the machine idle: a trigger whose drain is
// over and whose live-ins have no producer in flight, on a machine whose
// fetch is stalled and whose queues are empty. The next cycle moves the
// trigger to the live-in copy, so it must not be skipped.
func TestDrainWithoutProducersIsNotIdle(t *testing.T) {
	p := chaseSPEAR(t)
	s, err := newSim(p, SPEARConfig(128, false))
	if err != nil {
		t.Fatal(err)
	}
	s.fetchResumeAt = 1000
	s.mode = modeDrain
	s.sess = session{pt: &p.PThreads[0]}
	if !s.quiet() {
		t.Fatal("a fresh machine has work ready")
	}
	if s.idle() {
		t.Error("idle test holds for a drain with no producer in flight")
	}
	s.stepCycle()
	if s.mode == modeDrain {
		t.Error("the trigger stayed in the drain; the state under test is not the one described")
	}
}
