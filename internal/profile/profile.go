// Package profile implements the SPEAR compiler's profiling tool (module ②
// of Figure 4): a functional run of the program against the cache model
// that (a) counts D-L1 misses per static load to identify delinquent loads,
// (b) records the dynamic register and memory dependence edges observed on
// the paths that actually miss ("hybrid slicing" input), and (c) estimates
// the average cycle cost of one iteration of every loop (the d-cycles used
// for region selection).
//
// As in the paper, the profiling input set is intentionally different from
// the input set the experiments simulate.
package profile

import (
	"fmt"

	"spear/internal/cfg"
	"spear/internal/emu"
	"spear/internal/mem"
	"spear/internal/prog"
)

// Config controls a profiling run.
type Config struct {
	// Hierarchy is the cache model used for miss counting.
	Hierarchy mem.HierarchyConfig
	// MaxInstr bounds each functional pass.
	MaxInstr uint64
	// MissThreshold is the minimum number of D-L1 misses a static load
	// needs to become a delinquent load ("higher than some predetermined
	// value" in the paper). Loads below it are never d-loads.
	MissThreshold uint64
	// MaxDLoads caps how many d-loads are selected (highest miss counts
	// first). Zero means no cap.
	MaxDLoads int
	// Window is the retired-instruction window used to chase dynamic
	// dependences backwards when a d-load misses.
	Window int
}

// DefaultConfig mirrors the paper's setup at our scaled-down instruction
// counts.
func DefaultConfig() Config {
	return Config{
		Hierarchy:     mem.DefaultHierarchy(),
		MaxInstr:      30_000_000,
		MissThreshold: 64,
		MaxDLoads:     8,
		Window:        8192,
	}
}

// LoadStat describes one static load's profiled behaviour.
type LoadStat struct {
	PC     int
	Execs  uint64
	Misses uint64
}

// Result is everything the slicer needs.
type Result struct {
	InstrCount uint64
	LoadStats  map[int]*LoadStat
	// DLoads are the selected delinquent loads, highest miss count first.
	DLoads []int
	// Deps[consumerPC][producerPC] = weight, collected only while chasing
	// backwards from d-load misses. This realizes the paper's dynamic
	// control-flow filtering: producers on paths that do not lead to
	// misses never acquire weight. Deps is built once, after the run.
	Deps map[int]map[int]uint64
	// LoopDCycles[loopID] is the estimated average cycle cost of one
	// iteration of the loop (inner loops included), the paper's d-cycle.
	LoopDCycles map[int]float64
	// LoopIters[loopID] counts header-block executions.
	LoopIters map[int]uint64
	// InstrExecs counts retired executions per static instruction.
	InstrExecs []uint64
}

// Run profiles the program in two functional passes: the first identifies
// the delinquent loads; the second collects dependence edges for those
// loads and the loop d-cycles.
func Run(p *prog.Program, g *cfg.Graph, cfgc Config) (*Result, error) {
	if cfgc.Window <= 0 {
		return nil, fmt.Errorf("profile: window must be positive")
	}
	res := &Result{
		LoadStats:   map[int]*LoadStat{},
		Deps:        map[int]map[int]uint64{},
		LoopDCycles: map[int]float64{},
		LoopIters:   map[int]uint64{},
		InstrExecs:  make([]uint64, len(p.Text)),
	}
	if err := pass1(p, cfgc, res); err != nil {
		return nil, err
	}
	deps := newDepWindow(res, cfgc.Window, len(p.Text), mem.NewMemory())
	if err := pass2(p, g, cfgc, res, deps); err != nil {
		return nil, err
	}
	return res, nil
}

// pass1 counts per-load misses and selects the delinquent loads.
func pass1(p *prog.Program, cfgc Config, res *Result) error {
	hier := mem.NewHierarchy(cfgc.Hierarchy)
	m := emu.New(p)
	stats := make([]LoadStat, len(p.Text))
	m.Hook = func(ev *emu.Event) {
		if !ev.IsMem {
			return
		}
		isLoad := ev.Instr.Op.IsLoad()
		r := hier.Access(ev.Addr, !isLoad, 0)
		if !isLoad {
			return
		}
		ls := &stats[ev.PC]
		ls.Execs++
		if r.L1Miss {
			ls.Misses++
		}
	}
	if err := m.Run(cfgc.MaxInstr); err != nil && err != emu.ErrLimit {
		return fmt.Errorf("profile pass 1: %w", err)
	}
	res.InstrCount = m.Count

	for pc := range stats {
		ls := &stats[pc]
		if ls.Execs == 0 {
			continue
		}
		ls.PC = pc
		res.LoadStats[pc] = ls
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

// pass2 re-runs the program counting per-instruction executions and loop
// d-cycles and, unless deps is nil (pass1 selected no d-load), the
// dependence edges crossed by backward chases from d-load misses through
// deps (chase.go). Its per-instruction path touches no map and allocates
// nothing once the chase stack, the edge table and the store shadow's
// pages have grown.
func pass2(p *prog.Program, g *cfg.Graph, cfgc Config, res *Result, deps *depWindow) error {
	isDLoad := make([]bool, len(p.Text))
	for _, pc := range res.DLoads {
		isDLoad[pc] = true
	}

	hier := mem.NewHierarchy(cfgc.Hierarchy)
	m := emu.New(p)

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
	iters := make([]uint64, len(g.Loops))

	m.Hook = func(ev *emu.Event) {
		pc := ev.PC
		in := ev.Instr
		res.InstrExecs[pc]++
		li := &infos[pc]

		for _, l := range li.headerOf {
			iters[l]++
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

		if deps != nil {
			deps.retire(ev, missed && isDLoad[pc])
		}
	}
	if err := m.Run(cfgc.MaxInstr); err != nil && err != emu.ErrLimit {
		return fmt.Errorf("profile pass 2: %w", err)
	}

	if deps != nil {
		res.Deps = deps.finish(m.Count)
	}
	for l, it := range iters {
		if it > 0 {
			res.LoopIters[l] = it
			res.LoopDCycles[l] = latAcc[l] / float64(it)
		}
	}
	return nil
}
