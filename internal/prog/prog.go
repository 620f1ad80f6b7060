// Package prog defines the executable container shared by the assembler,
// the SPEAR compiler, and the simulators: a text segment of SPISA
// instructions, an initial data image, symbol tables, and — after the
// SPEAR attach step — the p-thread annotation table that the hardware
// P-thread Table (PT) is loaded from at program start.
package prog

import (
	"fmt"
	"sort"

	"spear/internal/isa"
)

// DataChunk is one initialized region of the data image.
type DataChunk struct {
	Addr  uint32
	Bytes []byte
}

// PThread is one compiled prefetching thread: the annotation the SPEAR
// compiler attaches for a single delinquent load. Instruction positions are
// absolute indices into the text segment.
type PThread struct {
	DLoad       int       // index of the delinquent load
	Members     []int     // sorted indices of all p-thread instructions (includes DLoad)
	LiveIns     []isa.Reg // registers to copy from the main thread on trigger
	RegionStart int       // first instruction of the selected prefetching region
	RegionEnd   int       // last instruction (inclusive) of the region
	DCycle      float64   // accumulated expected delay of the region (profiling estimate)
}

// Size returns the number of instructions in the p-thread.
func (p PThread) Size() int { return len(p.Members) }

// HasMember reports whether instruction index pc belongs to the p-thread.
func (p PThread) HasMember(pc int) bool {
	i := sort.SearchInts(p.Members, pc)
	return i < len(p.Members) && p.Members[i] == pc
}

// Program is a loaded or assembled SPISA executable.
type Program struct {
	Name    string
	Text    []isa.Instruction
	Entry   int
	Data    []DataChunk
	Symbols map[string]uint32 // data labels -> address
	Labels  map[string]int    // text labels -> instruction index

	// PThreads is the annotation table produced by the SPEAR compiler's
	// attach step. It is empty for a plain (baseline) binary.
	PThreads []PThread
}

// Validate checks structural invariants: entry and every control-transfer
// target in range, and every p-thread annotation consistent with the text.
func (p *Program) Validate() error {
	n := len(p.Text)
	if n == 0 {
		return fmt.Errorf("prog %s: empty text segment", p.Name)
	}
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("prog %s: entry %d out of range [0,%d)", p.Name, p.Entry, n)
	}
	for i, in := range p.Text {
		if in.Op.IsBranch() || in.Op == isa.J || in.Op == isa.JAL {
			if in.Imm < 0 || int(in.Imm) >= n {
				return fmt.Errorf("prog %s: instruction %d (%s): target %d out of range", p.Name, i, in, in.Imm)
			}
		}
	}
	for k, pt := range p.PThreads {
		if pt.DLoad < 0 || pt.DLoad >= n {
			return fmt.Errorf("prog %s: p-thread %d: d-load %d out of range", p.Name, k, pt.DLoad)
		}
		if !p.Text[pt.DLoad].Op.IsLoad() {
			return fmt.Errorf("prog %s: p-thread %d: d-load %d is %s, not a load", p.Name, k, pt.DLoad, p.Text[pt.DLoad].Op)
		}
		if !sort.IntsAreSorted(pt.Members) {
			return fmt.Errorf("prog %s: p-thread %d: members not sorted", p.Name, k)
		}
		if !pt.HasMember(pt.DLoad) {
			return fmt.Errorf("prog %s: p-thread %d: d-load not a member", p.Name, k)
		}
		for _, m := range pt.Members {
			if m < 0 || m >= n {
				return fmt.Errorf("prog %s: p-thread %d: member %d out of range", p.Name, k, m)
			}
		}
		for _, r := range pt.LiveIns {
			if int(r) >= isa.NumRegs {
				return fmt.Errorf("prog %s: p-thread %d: live-in register %d out of range", p.Name, k, r)
			}
		}
	}
	return nil
}

// Clone returns a deep copy (so the attach step never mutates the input
// binary in place).
func (p *Program) Clone() *Program {
	c := &Program{
		Name:    p.Name,
		Text:    append([]isa.Instruction(nil), p.Text...),
		Entry:   p.Entry,
		Symbols: make(map[string]uint32, len(p.Symbols)),
		Labels:  make(map[string]int, len(p.Labels)),
	}
	for _, d := range p.Data {
		c.Data = append(c.Data, DataChunk{Addr: d.Addr, Bytes: append([]byte(nil), d.Bytes...)})
	}
	for k, v := range p.Symbols {
		c.Symbols[k] = v
	}
	for k, v := range p.Labels {
		c.Labels[k] = v
	}
	for _, pt := range p.PThreads {
		c.PThreads = append(c.PThreads, PThread{
			DLoad:       pt.DLoad,
			Members:     append([]int(nil), pt.Members...),
			LiveIns:     append([]isa.Reg(nil), pt.LiveIns...),
			RegionStart: pt.RegionStart,
			RegionEnd:   pt.RegionEnd,
			DCycle:      pt.DCycle,
		})
	}
	return c
}

// LabelAt returns a label naming instruction index pc, if any (diagnostics).
func (p *Program) LabelAt(pc int) (string, bool) {
	best := ""
	for name, idx := range p.Labels {
		if idx == pc && (best == "" || name < best) {
			best = name
		}
	}
	return best, best != ""
}
