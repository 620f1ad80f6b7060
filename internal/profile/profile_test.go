package profile

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"spear/internal/asm"
	"spear/internal/cfg"
	"spear/internal/mem"
	"spear/internal/prog"
)

// gatherProgram returns a kernel with one obviously delinquent load, the
// index array randomized with the given seed.
func gatherProgram(t *testing.T, seed int64) (*prog.Program, *cfg.Graph) {
	t.Helper()
	p, err := asm.Assemble("g.s", `
        .data
idx:    .space 32768
tbl:    .space 4194304
        .text
main:   la   r1, idx
        la   r2, tbl
        li   r3, 0
        li   r4, 4096
loop:   slli r5, r3, 3
        add  r6, r1, r5
        ld   r7, 0(r6)
        slli r8, r7, 3
        add  r9, r2, r8
dload:  ld   r10, 0(r9)
        add  r11, r11, r10
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	off := p.Symbols["idx"] - p.Data[0].Addr
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[off+uint32(8*i):], uint64(r.Intn(512*1024)))
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func testConfig() Config {
	c := DefaultConfig()
	c.MaxInstr = 1_000_000
	c.MissThreshold = 64
	return c
}

func TestRunRejectsBadWindow(t *testing.T) {
	p, g := gatherProgram(t, 1)
	c := testConfig()
	c.Window = 0
	if _, err := Run(p, g, c); err == nil {
		t.Error("accepted zero window")
	}
}

func TestMissThresholdFiltersDLoads(t *testing.T) {
	p, g := gatherProgram(t, 2)
	c := testConfig()
	c.MissThreshold = 1 << 40 // nothing qualifies
	res, err := Run(p, g, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DLoads) != 0 {
		t.Errorf("d-loads selected despite impossible threshold: %v", res.DLoads)
	}
	// Load stats must still be collected.
	if len(res.LoadStats) == 0 {
		t.Error("no load stats collected")
	}
}

func TestMaxDLoadsCap(t *testing.T) {
	p, g := gatherProgram(t, 3)
	c := testConfig()
	c.MaxDLoads = 1
	c.MissThreshold = 1 // everything qualifies
	res, err := Run(p, g, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DLoads) != 1 {
		t.Fatalf("cap ignored: %v", res.DLoads)
	}
	// The single survivor must be the heaviest misser: the gather.
	if res.DLoads[0] != p.Labels["dload"] {
		t.Errorf("kept %d, want the gather at %d", res.DLoads[0], p.Labels["dload"])
	}
}

func TestDLoadsSortedByMisses(t *testing.T) {
	p, g := gatherProgram(t, 4)
	c := testConfig()
	c.MissThreshold = 1
	res, err := Run(p, g, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.DLoads); i++ {
		a := res.LoadStats[res.DLoads[i-1]].Misses
		b := res.LoadStats[res.DLoads[i]].Misses
		if b > a {
			t.Fatalf("d-loads not sorted by misses: %d then %d", a, b)
		}
	}
}

func TestInstrExecsCounted(t *testing.T) {
	p, g := gatherProgram(t, 5)
	res, err := Run(p, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dload := p.Labels["dload"]
	if res.InstrExecs[dload] != 4096 {
		t.Errorf("dload execs = %d, want 4096", res.InstrExecs[dload])
	}
	if res.InstrExecs[0] != 1 {
		t.Errorf("prologue execs = %d, want 1", res.InstrExecs[0])
	}
}

func TestLoopAccountingSingleLoop(t *testing.T) {
	p, g := gatherProgram(t, 6)
	res, err := Run(p, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d", len(g.Loops))
	}
	if res.LoopIters[0] != 4096 {
		t.Errorf("iterations = %d, want 4096", res.LoopIters[0])
	}
	// One near-always-missing load per 10-instruction iteration: the
	// d-cycle must be dominated by the memory latency.
	if dc := res.LoopDCycles[0]; dc < 40 || dc > 400 {
		t.Errorf("d-cycle = %.1f, expected memory-dominated", dc)
	}
}

// TestMemoryDependenceEdges checks that a store->load dependence on the
// miss path joins the dependence graph.
func TestMemoryDependenceEdges(t *testing.T) {
	p, err := asm.Assemble("m.s", `
        .data
cell:   .space 64
tbl:    .space 4194304
        .text
main:   la   r1, tbl
        li   r3, 0
        li   r4, 4096
loop:   mul  r5, r3, r3
        srli r5, r5, 3
        andi r5, r5, 0x7FFF8
        sd   r5, cell(r0)       # store the offset
        ld   r6, cell(r0)       # reload it (memory dependence)
        add  r7, r1, r6
dload:  ld   r8, 0(r7)          # delinquent gather through the reload
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reload := p.Labels["dload"] - 2
	store := reload - 1
	if res.Deps[reload] == nil || res.Deps[reload][store] == 0 {
		t.Errorf("store->load memory dependence missing: %v", res.Deps[reload])
	}
}

// TestControlFlowFiltering reproduces Figure 5: two producers on different
// paths, one almost never taken on the miss path. The rare path's producer
// must carry (nearly) no weight.
func TestControlFlowFiltering(t *testing.T) {
	p, err := asm.Assemble("f.s", `
        .data
flags:  .space 32768
tbl:    .space 4194304
        .text
main:   la   r1, flags
        la   r2, tbl
        li   r3, 0
        li   r4, 4096
loop:   slli r5, r3, 3
        add  r6, r1, r5
        ld   r7, 0(r6)          # flag: almost always odd
        andi r8, r7, 1
        beqz r8, rare
        srli r9, r7, 1          # common producer of the index
        j    meet
rare:   slli r9, r7, 2          # rare producer
meet:   andi r9, r9, 0x7FFFF
        slli r10, r9, 3
        add  r11, r2, r10
dload:  ld   r12, 0(r11)
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	off := p.Symbols["flags"] - p.Data[0].Addr
	for i := 0; i < 4096; i++ {
		v := uint64(r.Int63()) | 1 // always odd: rare path never taken
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[off+uint32(8*i):], v)
	}
	g, _ := cfg.Build(p)
	res, err := Run(p, g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	common := p.Labels["loop"] + 5 // srli r9
	rare := p.Labels["rare"]
	var commonW, rareW uint64
	for _, prods := range res.Deps {
		commonW += prods[common]
		rareW += prods[rare]
	}
	if commonW == 0 {
		t.Fatal("common-path producer never observed")
	}
	if rareW != 0 {
		t.Errorf("rare-path producer has weight %d on the miss path; want 0", rareW)
	}
}

// TestProfileDeterminism: two runs over the same program give identical
// results.
func TestProfileDeterminism(t *testing.T) {
	p1, g1 := gatherProgram(t, 11)
	p2, g2 := gatherProgram(t, 11)
	r1, err := Run(p1, g1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, g2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.InstrCount != r2.InstrCount {
		t.Error("instruction counts differ")
	}
	if len(r1.DLoads) != len(r2.DLoads) {
		t.Fatal("d-load sets differ")
	}
	for i := range r1.DLoads {
		if r1.DLoads[i] != r2.DLoads[i] {
			t.Error("d-load order differs")
		}
	}
}

// TestSmallWindowMissesLongRangeDeps documents why the window must span
// outer-loop distances: with a tiny window the loop-carried chain to the
// outer reset instruction is invisible.
func TestSmallWindowMissesLongRangeDeps(t *testing.T) {
	p, err := asm.Assemble("w.s", `
        .data
tbl:    .space 4194304
        .text
main:   la   r1, tbl
        li   r2, 0              # outer counter
outer:  li   r3, 0              # inner reset (long-range producer)
inner:  mul  r5, r3, r2
        andi r5, r5, 0x7FFF8
        add  r6, r1, r5
dload:  ld   r7, 0(r6)
        addi r3, r3, 1
        slti r8, r3, 512
        bnez r8, inner
        addi r2, r2, 1
        slti r8, r2, 16
        bnez r8, outer
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := cfg.Build(p)
	reset := p.Labels["outer"]

	weightTo := func(window int) uint64 {
		c := testConfig()
		c.Window = window
		c.Hierarchy = mem.DefaultHierarchy()
		res, err := Run(p, g, c)
		if err != nil {
			t.Fatal(err)
		}
		var w uint64
		for _, prods := range res.Deps {
			w += prods[reset]
		}
		return w
	}
	// A small window only sees the reset from the first few inner
	// iterations after each outer boundary; the wide window sees it from
	// every missing iteration. The wide window must dominate decisively.
	small, wide := weightTo(64), weightTo(8192)
	if wide == 0 {
		t.Fatal("8192-entry window failed to capture the outer reset")
	}
	if small*4 > wide {
		t.Errorf("window width has no effect: weight %d (64) vs %d (8192)", small, wide)
	}
}

// TestLoadOnlyPassLeavesStoreShadowEmpty runs pass 2 on a program that
// loads from 16 pages of data and stores nothing: the loads read the store
// shadow without giving it a page. (TestRunMatchesReference checks what
// the shadow records for stores.)
func TestLoadOnlyPassLeavesStoreShadowEmpty(t *testing.T) {
	p, err := asm.Assemble("loads.s", `
        .data
buf:    .space 1048576         # 16 pages of 64 KiB
        .text
main:   la   r1, buf
        li   r2, 0
        li   r3, 256
loop:   ld   r4, 0(r1)
        add  r5, r5, r4
        addi r1, r1, 4096
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	_, d, shadow := runPasses(t, p, testConfig())
	if d == nil {
		t.Fatal("no d-load selected; the pass kept no window")
	}
	if n := shadow.Pages(); n != 0 {
		t.Errorf("store shadow holds %d pages after a load-only pass over 16 pages, want 0", n)
	}
}
