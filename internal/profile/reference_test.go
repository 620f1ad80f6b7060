package profile

// The map-based profiler that pass2 replaced, kept as a test-only
// reference: Run must give a Result deep-equal to referenceRun's for
// every program and window.

import (
	"fmt"
	"reflect"
	"testing"

	"spear/internal/asm"
	"spear/internal/cfg"
	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/mem"
	"spear/internal/prog"
	"spear/internal/progen"
)

// TestRunMatchesReference runs generated programs of three presets under
// four windows: the smallest, two that are not powers of two, and the
// default. The stores of the chase and membound programs cover more than
// one 64 KiB page, so the store shadow's paging is exercised too. Generated
// programs access only 8-byte-aligned addresses, so one hand-written
// program adds a 4-byte store and reload in the upper half of a word on
// the miss path. Under -short only one chase program runs with it. The
// profiler is single-goroutine, so the race detector, which slows it
// tenfold, skips the test; CI runs the whole matrix in its non-race step.
func TestRunMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine comparison; run without -race")
	}
	sub, err := asm.Assemble("sub.s", `
        .data
cell:   .space 64
tbl:    .space 4194304
        .text
main:   la   r1, tbl
        la   r2, cell
        li   r3, 0
        li   r4, 4096
loop:   mul  r5, r3, r3
        srli r5, r5, 3
        andi r5, r5, 0x7FFF8
        sw   r5, 4(r2)
        lw   r6, 4(r2)
        add  r7, r1, r6
        ld   r8, 0(r7)
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name string
		p    *prog.Program
	}
	inputs := []input{{"sub-word reload", sub}}
	names, seeds := []string{"default", "chase", "membound"}, int64(2)
	if testing.Short() {
		names, seeds = []string{"chase"}, 1
	}
	for _, name := range names {
		for seed := int64(1); seed <= seeds; seed++ {
			p, err := progen.Generate(seed, progen.Presets()[name])
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%s seed %d", name, seed), p})
		}
	}

	var chased, multiPage bool
	for _, in := range inputs {
		g, err := cfg.Build(in.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 7, 100, 8192} {
			c := DefaultConfig()
			c.MissThreshold = 8
			c.MaxDLoads = 0
			c.Window = window
			got, pages := matchReference(t, fmt.Sprintf("%s, window %d", in.name, window), in.p, g, c)
			chased = chased || len(got.Deps) > 0
			multiPage = multiPage || pages > 1
		}
	}
	if !chased {
		t.Error("no program recorded a dependence edge; the comparison is vacuous")
	}
	if !multiPage {
		t.Error("no program stored to more than one 64 KiB page")
	}
}

// matchReference reports every Result field in which Run differs from
// referenceRun on p under c. It returns Run's result and how many 64 KiB
// pages the program's stores touched.
func matchReference(t *testing.T, name string, p *prog.Program, g *cfg.Graph, c Config) (*Result, int) {
	t.Helper()
	got, err := Run(p, g, c)
	if err != nil {
		t.Fatal(err)
	}
	want, pages, err := referenceRun(p, g, c)
	if err != nil {
		t.Fatal(err)
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s differs from the reference", name, gv.Type().Field(i).Name)
		}
	}
	return got, pages
}

// referenceEntry is one retired instruction in the reference window.
type referenceEntry struct {
	pc    int
	seq   uint64 // seq+1; 0 means empty
	nprod int
	prod  [4]uint64 // producer seq+1 values
}

// referenceRun is Run as it was before the map-free pass2. It also
// returns how many 64 KiB pages the program's stores touched.
func referenceRun(p *prog.Program, g *cfg.Graph, cfgc Config) (*Result, int, error) {
	if cfgc.Window <= 0 {
		return nil, 0, fmt.Errorf("profile: window must be positive")
	}
	res := &Result{
		LoadStats:   map[int]*LoadStat{},
		Deps:        map[int]map[int]uint64{},
		LoopDCycles: map[int]float64{},
		LoopIters:   map[int]uint64{},
		InstrExecs:  make([]uint64, len(p.Text)),
	}
	if err := referencePass1(p, cfgc, res); err != nil {
		return nil, 0, err
	}
	pages, err := referencePass2(p, g, cfgc, res)
	if err != nil {
		return nil, 0, err
	}
	return res, pages, nil
}

func referencePass1(p *prog.Program, cfgc Config, res *Result) error {
	hier := mem.NewHierarchy(cfgc.Hierarchy)
	m := emu.New(p)
	m.Hook = func(ev *emu.Event) {
		if !ev.IsMem {
			return
		}
		isLoad := ev.Instr.Op.IsLoad()
		r := hier.Access(ev.Addr, !isLoad, 0)
		if !isLoad {
			return
		}
		ls := res.LoadStats[ev.PC]
		if ls == nil {
			ls = &LoadStat{PC: ev.PC}
			res.LoadStats[ev.PC] = ls
		}
		ls.Execs++
		if r.L1Miss {
			ls.Misses++
		}
	}
	if err := m.Run(cfgc.MaxInstr); err != nil && err != emu.ErrLimit {
		return fmt.Errorf("profile pass 1: %w", err)
	}
	res.InstrCount = m.Count

	for pc, ls := range res.LoadStats {
		if ls.Misses >= cfgc.MissThreshold {
			res.DLoads = append(res.DLoads, pc)
		}
	}
	// Sort by miss count descending, then PC ascending, for determinism.
	for i := 1; i < len(res.DLoads); i++ {
		for j := i; j > 0; j-- {
			a, b := res.LoadStats[res.DLoads[j-1]], res.LoadStats[res.DLoads[j]]
			if b.Misses > a.Misses || (b.Misses == a.Misses && res.DLoads[j] < res.DLoads[j-1]) {
				res.DLoads[j-1], res.DLoads[j] = res.DLoads[j], res.DLoads[j-1]
			} else {
				break
			}
		}
	}
	if cfgc.MaxDLoads > 0 && len(res.DLoads) > cfgc.MaxDLoads {
		res.DLoads = res.DLoads[:cfgc.MaxDLoads]
	}
	return nil
}

func referencePass2(p *prog.Program, g *cfg.Graph, cfgc Config, res *Result) (int, error) {
	isDLoad := make([]bool, len(p.Text))
	for _, pc := range res.DLoads {
		isDLoad[pc] = true
	}

	hier := mem.NewHierarchy(cfgc.Hierarchy)
	m := emu.New(p)

	winSize := uint64(cfgc.Window)
	window := make([]referenceEntry, cfgc.Window)
	lastWriter := make([]uint64, isa.NumRegs) // reg -> seq+1
	lastStore := map[uint32]uint64{}          // 8-byte-aligned addr -> seq+1
	const storeAlign = ^uint32(7)

	// Precompute each instruction's chain of enclosing loops
	// (innermost-first) and whether it starts a loop header block.
	type loopInfo struct {
		chain    []int
		headerOf []int // loops whose header block starts at this pc
	}
	infos := make([]loopInfo, len(p.Text))
	for pc := range p.Text {
		var li loopInfo
		for l := g.LoopOf[g.BlockOf[pc]]; l != -1; l = g.Loops[l].Parent {
			li.chain = append(li.chain, l)
		}
		for i := range g.Loops {
			if g.Blocks[g.Loops[i].Header].Start == pc {
				li.headerOf = append(li.headerOf, i)
			}
		}
		infos[pc] = li
	}
	latAcc := make([]float64, len(g.Loops))

	addEdge := func(cons, prod int) {
		mm := res.Deps[cons]
		if mm == nil {
			mm = map[int]uint64{}
			res.Deps[cons] = mm
		}
		mm[prod]++
	}

	// chase walks backwards from entry e through window producers,
	// recording every (consumer, producer) static edge it crosses.
	var stack []uint64
	visited := map[uint64]bool{}
	chase := func(e *referenceEntry, seqNow uint64) {
		stack = stack[:0]
		for k := range visited {
			delete(visited, k)
		}
		inWindow := func(sp uint64) *referenceEntry {
			if sp == 0 || seqNow-(sp-1) >= winSize {
				return nil
			}
			w := &window[(sp-1)%winSize]
			if w.seq != sp {
				return nil
			}
			return w
		}
		for i := 0; i < e.nprod; i++ {
			if pe := inWindow(e.prod[i]); pe != nil {
				addEdge(e.pc, pe.pc)
				stack = append(stack, e.prod[i])
			}
		}
		for len(stack) > 0 {
			sp := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[sp] {
				continue
			}
			visited[sp] = true
			w := inWindow(sp)
			if w == nil {
				continue
			}
			for i := 0; i < w.nprod; i++ {
				if pe := inWindow(w.prod[i]); pe != nil {
					addEdge(w.pc, pe.pc)
					stack = append(stack, w.prod[i])
				}
			}
		}
	}

	var srcBuf [4]isa.Reg
	m.Hook = func(ev *emu.Event) {
		pc := ev.PC
		in := ev.Instr
		res.InstrExecs[pc]++
		li := &infos[pc]

		for _, l := range li.headerOf {
			res.LoopIters[l]++
		}

		// Latency estimate: fixed op latency; loads pay the modelled
		// cache access latency.
		lat := float64(in.Op.Latency())
		missed := false
		if ev.IsMem {
			r := hier.Access(ev.Addr, in.Op.IsStore(), 0)
			if in.Op.IsLoad() {
				lat = float64(r.Latency)
				missed = r.L1Miss
			}
		}
		for _, l := range li.chain {
			latAcc[l] += lat
		}

		// Dependence window update.
		seq := ev.Seq
		e := &window[seq%winSize]
		e.pc = pc
		e.seq = seq + 1
		e.nprod = 0
		for _, r := range in.Sources(srcBuf[:0]) {
			if w := lastWriter[r]; w != 0 && e.nprod < len(e.prod) {
				e.prod[e.nprod] = w
				e.nprod++
			}
		}
		if in.Op.IsLoad() {
			if w, ok := lastStore[ev.Addr&storeAlign]; ok && e.nprod < len(e.prod) {
				e.prod[e.nprod] = w
				e.nprod++
			}
		}
		if in.Op.IsStore() {
			lastStore[ev.Addr&storeAlign] = seq + 1
		}
		if rd, ok := in.Dest(); ok {
			lastWriter[rd] = seq + 1
		}

		if missed && isDLoad[pc] {
			chase(e, seq)
		}
	}
	if err := m.Run(cfgc.MaxInstr); err != nil && err != emu.ErrLimit {
		return 0, fmt.Errorf("profile pass 2: %w", err)
	}

	for l := range latAcc {
		if it := res.LoopIters[l]; it > 0 {
			res.LoopDCycles[l] = latAcc[l] / float64(it)
		}
	}
	pages := map[uint32]bool{}
	for a := range lastStore {
		pages[a>>16] = true
	}
	return len(pages), nil
}
