// Package emu implements the functional (architectural) SPISA emulator.
//
// The emulator defines the reference semantics of the ISA. It is used three
// ways: the SPEAR profiler drives it to collect run-time information; the
// workload suite validates its kernels on it; and the cycle-level core is
// tested against it instruction-for-instruction (the two must produce
// identical architectural results).
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"spear/internal/isa"
	"spear/internal/mem"
	"spear/internal/prog"
)

// StackTop is the initial stack pointer (stacks grow down).
const StackTop uint32 = 0x7FFF_FF00

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = errors.New("emu: instruction limit reached")

// Event describes one retired instruction, for observation hooks.
type Event struct {
	Seq    uint64 // retirement sequence number, starting at 0
	PC     int    // instruction index
	Instr  isa.Instruction
	NextPC int  // architectural successor
	Taken  bool // conditional branch outcome
	IsMem  bool
	Addr   uint32 // effective address when IsMem

	// Destination outcome (register bits for both int and FP results),
	// used by the cycle simulator's commit-time shadow state.
	HasDest bool
	DestReg isa.Reg
	DestVal uint64
}

// Machine is the architectural state of one SPISA program.
type Machine struct {
	Prog   *prog.Program
	Mem    *mem.Memory
	R      [isa.NumIntRegs]int64
	F      [isa.NumFPRegs]float64
	PC     int
	Halted bool
	Count  uint64 // retired instructions

	// Hook, when non-nil, observes every retired instruction. The
	// *Event is the machine's own and is valid until the next Step, which
	// overwrites it: a hook that keeps it longer must copy it.
	Hook func(*Event)

	ev Event // the event Step fills and passes to Hook
}

// New loads the program image into a fresh memory and positions the machine
// at the entry point.
func New(p *prog.Program) *Machine {
	m := NewWithMemory(p, mem.NewMemory())
	for _, d := range p.Data {
		m.Mem.WriteBytes(d.Addr, d.Bytes)
	}
	return m
}

// NewWithMemory attaches the machine to an existing memory image without
// re-initializing it (used to share a prepared image across runs).
func NewWithMemory(p *prog.Program, memory *mem.Memory) *Machine {
	m := &Machine{Prog: p, Mem: memory, PC: p.Entry}
	m.R[isa.RegSP] = int64(StackTop)
	return m
}

// StateHash fingerprints the machine's architectural state: retired
// count, PC, halt flag, every register, and the memory image (FNV-1a,
// materialization-independent). Two machines that executed the same
// program to the same point hash identically; the cycle simulator uses it
// to prove that speculative p-thread activity left no architectural trace.
func (m *Machine) StateHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(m.Count)
	put(uint64(int64(m.PC)))
	if m.Halted {
		put(1)
	} else {
		put(0)
	}
	for _, r := range m.R {
		put(uint64(r))
	}
	for _, f := range m.F {
		put(math.Float64bits(f))
	}
	put(m.Mem.Hash())
	return h.Sum64()
}

// Run executes until HALT or until maxInstr instructions have retired.
func (m *Machine) Run(maxInstr uint64) error {
	for !m.Halted {
		if m.Count >= maxInstr {
			return ErrLimit
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step retires exactly one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return errors.New("emu: machine is halted")
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Text) {
		return fmt.Errorf("emu: PC %d out of text range [0,%d)", m.PC, len(m.Prog.Text))
	}
	in := m.Prog.Text[m.PC]
	m.ev = Event{Seq: m.Count, PC: m.PC, Instr: in, NextPC: m.PC + 1}
	ev := &m.ev

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.Halted = true
		ev.NextPC = m.PC

	case isa.ADD:
		m.setR(in.Rd, m.R[in.Rs]+m.R[in.Rt])
	case isa.SUB:
		m.setR(in.Rd, m.R[in.Rs]-m.R[in.Rt])
	case isa.MUL:
		m.setR(in.Rd, m.R[in.Rs]*m.R[in.Rt])
	case isa.DIV:
		if m.R[in.Rt] == 0 {
			m.setR(in.Rd, 0) // division by zero yields 0 by definition
		} else {
			m.setR(in.Rd, m.R[in.Rs]/m.R[in.Rt])
		}
	case isa.REM:
		if m.R[in.Rt] == 0 {
			m.setR(in.Rd, 0)
		} else {
			m.setR(in.Rd, m.R[in.Rs]%m.R[in.Rt])
		}
	case isa.AND:
		m.setR(in.Rd, m.R[in.Rs]&m.R[in.Rt])
	case isa.OR:
		m.setR(in.Rd, m.R[in.Rs]|m.R[in.Rt])
	case isa.XOR:
		m.setR(in.Rd, m.R[in.Rs]^m.R[in.Rt])
	case isa.SLL:
		m.setR(in.Rd, m.R[in.Rs]<<(uint64(m.R[in.Rt])&63))
	case isa.SRL:
		m.setR(in.Rd, int64(uint64(m.R[in.Rs])>>(uint64(m.R[in.Rt])&63)))
	case isa.SRA:
		m.setR(in.Rd, m.R[in.Rs]>>(uint64(m.R[in.Rt])&63))
	case isa.SLT:
		m.setR(in.Rd, b2i(m.R[in.Rs] < m.R[in.Rt]))
	case isa.SLTU:
		m.setR(in.Rd, b2i(uint64(m.R[in.Rs]) < uint64(m.R[in.Rt])))

	case isa.ADDI:
		m.setR(in.Rd, m.R[in.Rs]+int64(in.Imm))
	case isa.ANDI:
		m.setR(in.Rd, m.R[in.Rs]&int64(in.Imm))
	case isa.ORI:
		m.setR(in.Rd, m.R[in.Rs]|int64(in.Imm))
	case isa.XORI:
		m.setR(in.Rd, m.R[in.Rs]^int64(in.Imm))
	case isa.SLLI:
		m.setR(in.Rd, m.R[in.Rs]<<(uint32(in.Imm)&63))
	case isa.SRLI:
		m.setR(in.Rd, int64(uint64(m.R[in.Rs])>>(uint32(in.Imm)&63)))
	case isa.SRAI:
		m.setR(in.Rd, m.R[in.Rs]>>(uint32(in.Imm)&63))
	case isa.SLTI:
		m.setR(in.Rd, b2i(m.R[in.Rs] < int64(in.Imm)))
	case isa.LUI:
		m.setR(in.Rd, int64(in.Imm)<<16)

	case isa.LB:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setR(in.Rd, int64(int8(m.Mem.ReadU8(a))))
	case isa.LBU:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setR(in.Rd, int64(m.Mem.ReadU8(a)))
	case isa.LH:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setR(in.Rd, int64(int16(m.Mem.ReadU16(a))))
	case isa.LW:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setR(in.Rd, int64(int32(m.Mem.ReadU32(a))))
	case isa.LD:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setR(in.Rd, int64(m.Mem.ReadU64(a)))
	case isa.FLD:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.setF(in.Rd, m.Mem.ReadF64(a))

	case isa.SB:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.Mem.WriteU8(a, uint8(m.R[in.Rt]))
	case isa.SH:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.Mem.WriteU16(a, uint16(m.R[in.Rt]))
	case isa.SW:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.Mem.WriteU32(a, uint32(m.R[in.Rt]))
	case isa.SD:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.Mem.WriteU64(a, uint64(m.R[in.Rt]))
	case isa.FSD:
		a := m.ea(in)
		ev.IsMem, ev.Addr = true, a
		m.Mem.WriteF64(a, m.fval(in.Rt))

	case isa.BEQ:
		ev.Taken = m.R[in.Rs] == m.R[in.Rt]
	case isa.BNE:
		ev.Taken = m.R[in.Rs] != m.R[in.Rt]
	case isa.BLT:
		ev.Taken = m.R[in.Rs] < m.R[in.Rt]
	case isa.BGE:
		ev.Taken = m.R[in.Rs] >= m.R[in.Rt]
	case isa.BLTU:
		ev.Taken = uint64(m.R[in.Rs]) < uint64(m.R[in.Rt])
	case isa.BGEU:
		ev.Taken = uint64(m.R[in.Rs]) >= uint64(m.R[in.Rt])

	case isa.J:
		ev.NextPC = int(in.Imm)
	case isa.JAL:
		m.setR(in.Rd, int64(m.PC+1))
		ev.NextPC = int(in.Imm)
	case isa.JR:
		ev.NextPC = int(m.R[in.Rs])
	case isa.JALR:
		t := int(m.R[in.Rs])
		m.setR(in.Rd, int64(m.PC+1))
		ev.NextPC = t

	case isa.FADD:
		m.setF(in.Rd, m.fval(in.Rs)+m.fval(in.Rt))
	case isa.FSUB:
		m.setF(in.Rd, m.fval(in.Rs)-m.fval(in.Rt))
	case isa.FMUL:
		m.setF(in.Rd, m.fval(in.Rs)*m.fval(in.Rt))
	case isa.FDIV:
		m.setF(in.Rd, m.fval(in.Rs)/m.fval(in.Rt))
	case isa.FSQRT:
		m.setF(in.Rd, math.Sqrt(m.fval(in.Rs)))
	case isa.FNEG:
		m.setF(in.Rd, -m.fval(in.Rs))
	case isa.FABS:
		m.setF(in.Rd, math.Abs(m.fval(in.Rs)))
	case isa.FMOV:
		m.setF(in.Rd, m.fval(in.Rs))
	case isa.CVTLD:
		m.setF(in.Rd, float64(m.R[in.Rs]))
	case isa.CVTDL:
		f := m.fval(in.Rs)
		if math.IsNaN(f) {
			m.setR(in.Rd, 0)
		} else {
			m.setR(in.Rd, int64(f))
		}
	case isa.FEQ:
		m.setR(in.Rd, b2i(m.fval(in.Rs) == m.fval(in.Rt)))
	case isa.FLT:
		m.setR(in.Rd, b2i(m.fval(in.Rs) < m.fval(in.Rt)))
	case isa.FLE:
		m.setR(in.Rd, b2i(m.fval(in.Rs) <= m.fval(in.Rt)))

	default:
		return fmt.Errorf("emu: PC %d: cannot execute %s", m.PC, in)
	}

	if in.Op.IsBranch() && ev.Taken {
		ev.NextPC = int(in.Imm)
	}
	if rd, ok := in.Dest(); ok {
		ev.HasDest = true
		ev.DestReg = rd
		if rd.IsFP() {
			ev.DestVal = math.Float64bits(m.F[rd-isa.FP0])
		} else {
			ev.DestVal = uint64(m.R[rd])
		}
	}
	m.Count++
	if m.Hook != nil {
		m.Hook(ev)
	}
	m.PC = ev.NextPC
	return nil
}

// ea computes the effective address of a memory instruction.
func (m *Machine) ea(in isa.Instruction) uint32 {
	return uint32(m.R[in.Rs] + int64(in.Imm))
}

// setR writes an integer destination, preserving the hardwired zero.
func (m *Machine) setR(rd isa.Reg, v int64) {
	if rd != isa.RegZero {
		if rd.IsFP() {
			// Integer results targeted at FP registers indicate a
			// malformed program; store the bit pattern to stay total.
			m.F[rd-isa.FP0] = math.Float64frombits(uint64(v))
			return
		}
		m.R[rd] = v
	}
}

// setF writes an FP destination.
func (m *Machine) setF(rd isa.Reg, v float64) {
	if rd.IsFP() {
		m.F[rd-isa.FP0] = v
		return
	}
	if rd != isa.RegZero {
		m.R[rd] = int64(math.Float64bits(v))
	}
}

// fval reads an FP source register.
func (m *Machine) fval(r isa.Reg) float64 {
	if r.IsFP() {
		return m.F[r-isa.FP0]
	}
	return math.Float64frombits(uint64(m.R[r]))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Reg reads integer register r (helper for tests and the harness).
func (m *Machine) Reg(r isa.Reg) int64 { return m.R[r] }
