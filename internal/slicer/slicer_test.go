package slicer

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"spear/internal/asm"
	"spear/internal/cfg"
	"spear/internal/isa"
	"spear/internal/profile"
	"spear/internal/prog"
)

// fixture builds a nested-loop program and a hand-crafted profile result so
// the slicer's policies can be tested in isolation from the profiler.
//
// Layout:
//
//	 0 main:  la   r1, tbl
//	 1        li   r2, 0        ; outer counter
//	 2 outer: li   r3, 0        ; inner counter
//	 3 inner: slli r4, r3, 3
//	 4        add  r5, r1, r4
//	 5 dload: ld   r6, 0(r5)
//	 6        add  r7, r7, r6
//	 7        addi r3, r3, 1
//	 8        slti r8, r3, 64
//	 9        bnez r8, inner
//	10        addi r2, r2, 1
//	11        slti r8, r2, 16
//	12        bnez r8, outer
//	13        halt
func fixture(t *testing.T) (*prog.Program, *cfg.Graph) {
	t.Helper()
	p, err := asm.Assemble("n.s", `
        .data
tbl:    .space 4096
        .text
main:   la   r1, tbl
        li   r2, 0
outer:  li   r3, 0
inner:  slli r4, r3, 3
        add  r5, r1, r4
dload:  ld   r6, 0(r5)
        add  r7, r7, r6
        addi r3, r3, 1
        slti r8, r3, 64
        bnez r8, inner
        addi r2, r2, 1
        slti r8, r2, 16
        bnez r8, outer
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Loops) != 2 {
		t.Fatalf("fixture needs 2 loops, got %d", len(g.Loops))
	}
	return p, g
}

// profileFor fabricates a profiling result with the given per-loop
// d-cycles and a dependence chain for the d-load.
func profileFor(p *prog.Program, g *cfg.Graph, innerDC, outerDC float64) *profile.Result {
	dload := p.Labels["dload"]
	inner := g.InnermostLoopAt(dload)
	outer := g.Loops[inner].Parent
	return &profile.Result{
		LoadStats: map[int]*profile.LoadStat{dload: {PC: dload, Execs: 1024, Misses: 1000}},
		DLoads:    []int{dload},
		Deps: map[int]map[int]uint64{
			dload:     {dload - 1: 1000},       // ld <- add r5
			dload - 1: {dload - 2: 1000},       // add <- slli
			dload - 2: {dload + 2: 990, 2: 10}, // slli <- addi r3 (hot), li r3 (rare)
			dload + 2: {dload + 2: 900},        // addi r3 <- itself (loop carried)
		},
		LoopDCycles: map[int]float64{inner: innerDC, outer: outerDC},
		LoopIters:   map[int]uint64{inner: 1024, outer: 16},
	}
}

func TestRegionStaysInnermostWhenDCycleSufficient(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 200, 13000) // inner already >= 120
	pts, reps := Build(p, g, res, DefaultConfig())
	if len(pts) != 1 {
		t.Fatalf("p-threads = %d; reports %+v", len(pts), reps)
	}
	lo, hi := g.LoopInstrRange(g.InnermostLoopAt(p.Labels["dload"]))
	if pts[0].RegionStart != lo || pts[0].RegionEnd != hi {
		t.Errorf("region [%d,%d], want inner loop [%d,%d]", pts[0].RegionStart, pts[0].RegionEnd, lo, hi)
	}
}

func TestRegionExpandsToOuterLoop(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 30, 2000) // inner < 120: expand
	pts, _ := Build(p, g, res, DefaultConfig())
	if len(pts) != 1 {
		t.Fatal("no p-thread")
	}
	inner := g.InnermostLoopAt(p.Labels["dload"])
	lo, hi := g.LoopInstrRange(g.Loops[inner].Parent)
	if pts[0].RegionStart != lo || pts[0].RegionEnd != hi {
		t.Errorf("region [%d,%d], want outer loop [%d,%d]", pts[0].RegionStart, pts[0].RegionEnd, lo, hi)
	}
	if pts[0].DCycle != 2000 {
		t.Errorf("accumulated d-cycle = %v", pts[0].DCycle)
	}
}

func TestRegionStopsAtOutermostLoop(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 10, 20) // even the outer loop is below threshold
	pts, _ := Build(p, g, res, DefaultConfig())
	if len(pts) != 1 {
		t.Fatal("no p-thread")
	}
	inner := g.InnermostLoopAt(p.Labels["dload"])
	lo, hi := g.LoopInstrRange(g.Loops[inner].Parent)
	if pts[0].RegionStart != lo || pts[0].RegionEnd != hi {
		t.Error("region should settle on the outermost loop when the budget is never met")
	}
}

func TestEdgeWeightFilterDropsRareProducers(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 30, 2000)
	cfgc := DefaultConfig() // 5% of 1000 misses = weight >= 50
	pts, _ := Build(p, g, res, cfgc)
	if len(pts) != 1 {
		t.Fatal("no p-thread")
	}
	// The rare producer (li r3 at pc 2, weight 10 < 50) must be excluded
	// even though it is inside the outer region.
	if pts[0].HasMember(2) {
		t.Error("rare-path producer joined the slice despite the weight filter")
	}
	// The hot chain must be present.
	for _, want := range []int{p.Labels["dload"], p.Labels["dload"] - 1, p.Labels["dload"] - 2, p.Labels["dload"] + 2} {
		if !pts[0].HasMember(want) {
			t.Errorf("hot-chain member %d missing from %v", want, pts[0].Members)
		}
	}
}

func TestEdgeWeightFilterKeepsRareWhenDisabled(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 30, 2000)
	cfgc := DefaultConfig()
	cfgc.EdgeWeightFraction = 0 // min weight 1: everything inside the region joins
	pts, _ := Build(p, g, res, cfgc)
	if !pts[0].HasMember(2) {
		t.Error("weight filter disabled but rare producer still excluded")
	}
}

// TestEdgeWeightFilterOnProfiledProgram runs the filter end to end on
// profiled weights: the base register of a gather has a common producer
// and a rare one, taken in 1 of 64 iterations. The profiler must give the
// rare edge a weight below 5% of the misses, and the slicer must drop
// the rare producer at the default fraction and keep it at 0.
func TestEdgeWeightFilterOnProfiledProgram(t *testing.T) {
	p, err := asm.Assemble("r.s", `
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
        andi r9, r3, 63
        beqz r9, rare
common: addi r10, r2, 0         # common producer of the base
        j    meet
rare:   addi r10, r2, 0         # rare producer of the base
meet:   add  r11, r10, r8
dload:  ld   r12, 0(r11)
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	off := p.Symbols["idx"] - p.Data[0].Addr
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[off+uint32(8*i):], uint64(r.Intn(512*1024)))
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Labels
	pcfg := profile.DefaultConfig()
	pcfg.MaxInstr = 1_000_000
	res, err := profile.Run(p, g, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	misses := res.LoadStats[pc["dload"]].Misses
	limit := uint64(DefaultConfig().EdgeWeightFraction * float64(misses))
	rareW, commonW := res.Deps[pc["meet"]][pc["rare"]], res.Deps[pc["meet"]][pc["common"]]
	if rareW == 0 || rareW >= limit {
		t.Fatalf("rare edge weight %d, want in [1, %d) for %d misses", rareW, limit, misses)
	}
	if commonW < limit {
		t.Fatalf("common edge weight %d below the filter's %d", commonW, limit)
	}

	slice := func(fraction float64) prog.PThread {
		t.Helper()
		c := DefaultConfig()
		c.EdgeWeightFraction = fraction
		_, reps := Build(p, g, res, c)
		for _, rep := range reps {
			if rep.DLoad == pc["dload"] && !rep.Skipped {
				return rep.PThread
			}
		}
		t.Fatalf("no p-thread for the gather at %d: %+v", pc["dload"], reps)
		return prog.PThread{}
	}
	if pt := slice(DefaultConfig().EdgeWeightFraction); pt.HasMember(pc["rare"]) || !pt.HasMember(pc["common"]) {
		t.Errorf("default filter: members %v, want common %d without rare %d", pt.Members, pc["common"], pc["rare"])
	}
	if pt := slice(0); !pt.HasMember(pc["rare"]) || !pt.HasMember(pc["common"]) {
		t.Errorf("filter off: members %v, want both common %d and rare %d", pt.Members, pc["common"], pc["rare"])
	}
}

func TestSliceNeverLeavesRegion(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 200, 13000) // inner region only
	// Add a dependence pointing outside the inner loop (to the la at 0).
	res.Deps[p.Labels["dload"]-1][0] = 1000
	pts, _ := Build(p, g, res, DefaultConfig())
	for _, m := range pts[0].Members {
		if m < pts[0].RegionStart || m > pts[0].RegionEnd {
			t.Errorf("member %d escapes region [%d,%d]", m, pts[0].RegionStart, pts[0].RegionEnd)
		}
	}
}

func TestLiveInsAreConservative(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 30, 2000)
	pts, _ := Build(p, g, res, DefaultConfig())
	// Every register any member reads must be a live-in — including r3,
	// which the slice itself defines (extraction may start mid-loop).
	want := map[isa.Reg]bool{1: true, 3: true, 5: true}
	got := map[isa.Reg]bool{}
	for _, r := range pts[0].LiveIns {
		got[r] = true
	}
	for r := range want {
		if !got[r] {
			t.Errorf("live-ins %v missing %v", pts[0].LiveIns, r)
		}
	}
	if got[isa.RegZero] {
		t.Error("r0 must never be a live-in")
	}
}

func TestSizeCapSkips(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 30, 2000)
	cfgc := DefaultConfig()
	cfgc.MaxPThreadSize = 2
	pts, reps := Build(p, g, res, cfgc)
	if len(pts) != 0 {
		t.Error("size cap not enforced")
	}
	if !reps[0].Skipped || reps[0].Reason == "" {
		t.Error("skip not reported")
	}
}

func TestDLoadOutsideLoopSkipped(t *testing.T) {
	p, err := asm.Assemble("s.s", `
        .data
v:      .space 64
        .text
main:   ld r1, v(r0)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := cfg.Build(p)
	res := &profile.Result{
		LoadStats: map[int]*profile.LoadStat{0: {PC: 0, Misses: 5000, Execs: 5000}},
		DLoads:    []int{0},
		Deps:      map[int]map[int]uint64{},
	}
	pts, reps := Build(p, g, res, DefaultConfig())
	if len(pts) != 0 || !reps[0].Skipped {
		t.Error("load outside any loop must be skipped")
	}
}

func TestReportCarriesMissCount(t *testing.T) {
	p, g := fixture(t)
	res := profileFor(p, g, 200, 13000)
	_, reps := Build(p, g, res, DefaultConfig())
	if reps[0].Misses != 1000 {
		t.Errorf("report misses = %d", reps[0].Misses)
	}
}
