package cpu

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"spear/internal/prog"
	"spear/internal/spearcc"
)

// Behavioural tests for the SPEAR front end beyond the basic integration
// in sim_test.go.

func TestDeterministicResults(t *testing.T) {
	p := compileSPEAR(t, 1, 2)
	cfg := SPEARConfig(128, false)
	r1, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Extracted != r2.Extracted ||
		r1.MainL1Misses() != r2.MainL1Misses() || r1.Triggers != r2.Triggers {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", r1, r2)
	}
}

// chaseKernel builds a serial pointer chase over a single-cycle random
// permutation: the canonical case pre-execution cannot accelerate.
func chaseKernel(t *testing.T, seed int64) *prog.Program {
	t.Helper()
	p := assemble(t, `
        .data
next:   .space 2097152       # 256K entries
        .text
main:   la   r1, next
        li   r3, 0
        li   r4, 20000
        li   r9, 0
loop:   slli r5, r9, 3
        add  r6, r1, r5
dload:  ld   r7, 0(r6)         # serial chase
        andi r9, r7, 0x3FFFF
        xor  r11, r11, r7
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	r := rand.New(rand.NewSource(seed))
	const n = 256 * 1024
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], perm[i])
	}
	return p
}

// TestChaseGainsNothing is the physical-honesty invariant: a serial pointer
// chase cannot be accelerated by pre-execution, because the p-thread's
// next address depends on the previous load's value just like the main
// thread's does. Any significant speedup here would mean the simulator is
// leaking oracle knowledge into the p-thread.
func TestChaseGainsNothing(t *testing.T) {
	train := chaseKernel(t, 100)
	opts := spearcc.DefaultOptions()
	opts.Profile.MaxInstr = 500_000
	compiled, _, err := spearcc.Compile(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.PThreads) == 0 {
		t.Skip("no p-thread built for the chase")
	}
	ref := chaseKernel(t, 200)
	compiled.Data = ref.Data

	base, err := Run(compiled, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SPEARConfig(128, false)
	cfg.MaxCycles = 200_000_000
	sp, err := Run(compiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp.IPC > 1.05*base.IPC {
		t.Errorf("serial chase sped up %.1f%% — oracle leak into the p-thread",
			100*(sp.IPC/base.IPC-1))
	}
}

// TestLeafVsChainClassification checks, on a compiled gather kernel, the
// slice shape the simulator's leaf/chain classification rests on: the
// gather's result feeds no slice member, the index load's does.
func TestLeafVsChainClassification(t *testing.T) {
	p := compileSPEAR(t, 3, 4)
	// The final gather (dload label) feeds nothing in the slice: leaf.
	// The index load feeds the address chain: chain.
	dload := p.Labels["dload"]
	idxLoad := p.Labels["loop"] + 2
	// Recompute classification exactly as Run does.
	sourced := map[int]bool{}
	for i := range p.PThreads {
		pt := &p.PThreads[i]
		for _, m := range pt.Members {
			for _, r := range p.Text[m].Sources(nil) {
				sourced[int(r)] = true
			}
		}
	}
	if rd, ok := p.Text[dload].Dest(); !ok || sourced[int(rd)] {
		t.Error("gather destination unexpectedly consumed by the slice")
	}
	if rd, ok := p.Text[idxLoad].Dest(); !ok || !sourced[int(rd)] {
		t.Error("index-load destination should be consumed by the slice")
	}
}

func TestMispredictsKillSessions(t *testing.T) {
	// A kernel with data-dependent branches (bias ~0.85) compiled with
	// SPEAR must record killed sessions: IFQ flushes destroy in-flight
	// extraction.
	build := func(seed int64) *prog.Program {
		p := assemble(t, `
        .data
seq:    .space 262144
tbl:    .space 4194304
        .text
main:   la   r1, seq
        la   r2, tbl
        li   r3, 0
        li   r4, 30000
loop:   slli r5, r3, 3
        andi r5, r5, 0x3FFF8
        add  r6, r1, r5
        ld   r7, 0(r6)
        andi r8, r7, 0x7FFFF
        slli r8, r8, 3
        add  r9, r2, r8
dload:  ld   r10, 0(r9)
        andi r11, r7, 1
        beqz r11, odd
        addi r12, r12, 1
odd:    addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 32768; i++ {
			v := uint64(r.Int63()) &^ 1
			if r.Float64() < 0.15 {
				v |= 1
			}
			binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], v)
		}
		return p
	}
	train := build(5)
	opts := spearcc.DefaultOptions()
	opts.Profile.MaxInstr = 800_000
	compiled, _, err := spearcc.Compile(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	compiled.Data = build(6).Data
	cfg := SPEARConfig(128, false)
	res, err := Run(compiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts == 0 {
		t.Fatal("no mispredicts in a biased-branch kernel")
	}
	if res.SessionsKilled == 0 {
		t.Error("mispredict flushes never killed a session")
	}
	if res.SessionsDone == 0 {
		t.Error("no sessions completed either")
	}
}

func TestPThreadStoresDoNotTouchMemory(t *testing.T) {
	// A kernel whose slice includes a store: p-thread execution must not
	// change architectural results (Run validates committed counts; here
	// we additionally check the accumulated register result via the
	// oracle by comparing baseline and SPEAR memory side effects through
	// identical final instruction counts and cycles differing).
	p := compileSPEAR(t, 7, 8)
	base, err := Run(p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SPEARConfig(128, false)
	sp, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Architectural equivalence: both retire the oracle's instruction
	// stream exactly (Run errors otherwise); the instruction counts agree.
	if base.MainCommitted != sp.MainCommitted {
		t.Errorf("committed counts diverge: %d vs %d", base.MainCommitted, sp.MainCommitted)
	}
}

func TestExtractionRespectsBandwidth(t *testing.T) {
	p := compileSPEAR(t, 9, 10)
	cfg := SPEARConfig(128, false)
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extracted == 0 {
		t.Fatal("nothing extracted")
	}
	// The PE cannot extract more than ExtractWidth per cycle.
	if res.Extracted > res.Cycles*uint64(cfg.ExtractWidth) {
		t.Errorf("extracted %d in %d cycles exceeds the %d/cycle bandwidth",
			res.Extracted, res.Cycles, cfg.ExtractWidth)
	}
	// Everything extracted eventually commits or is squashed; committed
	// p-thread instructions can never exceed extractions.
	if res.PCommitted > res.Extracted {
		t.Errorf("p-committed %d > extracted %d", res.PCommitted, res.Extracted)
	}
}

func TestLiveInCopiesCharged(t *testing.T) {
	p := compileSPEAR(t, 11, 12)
	cfg := SPEARConfig(128, false)
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triggers == 0 {
		t.Fatal("no triggers")
	}
	if res.LiveInCopies == 0 {
		t.Error("live-in copy cycles never charged")
	}
}

func TestHaltDrainsCleanly(t *testing.T) {
	// A SPEAR run whose p-thread is still active at HALT must terminate.
	p := compileSPEAR(t, 13, 14)
	cfg := SPEARConfig(256, false)
	cfg.MaxCycles = 200_000_000
	if _, err := Run(p, cfg); err != nil {
		t.Fatalf("run did not terminate cleanly: %v", err)
	}
}
