package profile

import (
	"fmt"
	"testing"

	"spear/internal/asm"
	"spear/internal/cfg"
	"spear/internal/workloads"
)

// TestKernelsMatchReference compares Run with referenceRun on the train
// builds of four paper kernels, profiled as harness.DefaultOptions
// profiles them, under windows 100 and 8192. tr chases a five-instruction
// pointer cycle; mcf and art chase same-pc recurrences whose first
// consumer has another pc; field selects no d-load. Like TestRunMatchesReference it skips under
// -race, and it skips under -short; CI runs it in its non-race step.
func TestKernelsMatchReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine comparison; run without -race")
	}
	if testing.Short() {
		t.Skip("runs the map-based reference over four kernels")
	}
	for _, name := range []string{"tr", "mcf", "art", "field"} {
		k, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no kernel %s", name)
		}
		p, err := k.Build(workloads.Train)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{100, 8192} {
			c := DefaultConfig()
			c.MaxInstr, c.MissThreshold = 4_000_000, 2048
			c.Window = window
			got, _ := matchReference(t, fmt.Sprintf("%s, window %d", name, window), p, g, c)
			if chased, want := len(got.Deps) > 0, name != "field"; chased != want {
				t.Errorf("%s, window %d: recorded dependence edges %v, want %v", name, window, chased, want)
			}
		}
	}
}

// TestReenteredLoopReusesRuns runs an inner induction loop that an outer
// loop enters 50 times, under a window of 7. Each entry restarts the
// induction variable, so its recurrence becomes a new run while the old
// ones leave the window: Run must still match the reference, every run
// must be freed by the end of the pass, and the run table must never
// outgrow the window, so the 50 recurrences reused its ids.
func TestReenteredLoopReusesRuns(t *testing.T) {
	p, err := asm.Assemble("reenter.s", `
        .data
tbl:    .space 65536
        .text
main:   la   r2, tbl
        li   r8, 0
        li   r9, 50
        li   r4, 20
outer:  li   r3, 0
inner:  slli r5, r3, 6
        add  r6, r2, r5
        ld   r7, 0(r6)
        addi r3, r3, 1
        blt  r3, r4, inner
        addi r2, r2, 1280
        addi r8, r8, 1
        blt  r8, r9, outer
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	c := testConfig()
	c.Window = 7
	got, _ := matchReference(t, "re-entered loop, window 7", p, g, c)
	if len(got.Deps) == 0 {
		t.Fatal("no dependence edge recorded; the comparison is vacuous")
	}
	_, d, _ := runPasses(t, p, c)
	if len(d.runs) > c.Window {
		t.Errorf("run table holds %d runs, want at most the window's %d", len(d.runs), c.Window)
	}
	if len(d.free) != len(d.runs) {
		t.Errorf("%d of %d runs freed at the end of the pass, want all", len(d.free), len(d.runs))
	}
}

// TestInductionChaseStepsBounded pins how runs are formed, a speed
// property that no equality test sees. In the gather loop the branch
// consumes each induction update before the next update does. If it took
// the top of the update's run, every update would start a run of its own
// and each miss would walk back through all of them: about 810 nodes per
// miss under the default window. Kept as one run, a chase enters about 3.
func TestInductionChaseStepsBounded(t *testing.T) {
	p, _ := gatherProgram(t, 1)
	res, d, _ := runPasses(t, p, testConfig())
	if len(res.DLoads) == 0 || d.gen == 0 {
		t.Fatal("no d-load miss was chased")
	}
	if per := float64(d.steps) / float64(d.gen); per > 8 {
		t.Errorf("chases entered %.1f nodes per miss (%d over %d misses), want at most 8", per, d.steps, d.gen)
	}
}

// TestNoDLoadKeepsNoWindow runs pass 2 on a program that stores to 16
// pages and whose loads all hit: with no d-load there is nothing to chase,
// so the pass keeps no dependence window and gives the store shadow no
// page.
func TestNoDLoadKeepsNoWindow(t *testing.T) {
	p, err := asm.Assemble("stores.s", `
        .data
buf:    .space 1048576         # 16 pages of 64 KiB
        .text
main:   la   r1, buf
        li   r2, 0
        li   r3, 256
loop:   sd   r2, 0(r1)
        ld   r4, 0(r1)
        addi r1, r1, 4096
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	res, d, shadow := runPasses(t, p, testConfig())
	if len(res.DLoads) != 0 {
		t.Fatalf("d-loads %v selected, want none", res.DLoads)
	}
	if d != nil {
		t.Error("pass 2 kept a dependence window without a d-load")
	}
	if n := shadow.Pages(); n != 0 {
		t.Errorf("store shadow holds %d pages without a d-load, want 0", n)
	}
	if len(res.Deps) != 0 {
		t.Errorf("Deps %v without a d-load, want none", res.Deps)
	}
}
