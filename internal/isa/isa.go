// Package isa defines SPISA, the 64-bit PISA-like RISC instruction set used
// throughout the SPEAR reproduction.
//
// SPISA plays the role SimpleScalar's PISA plays in the paper: a small RISC
// target with 32 integer and 32 floating-point registers on which both the
// SPEAR post-compiler (binary analysis) and the cycle-level simulator
// operate. Instructions are held decoded in memory as Instruction values; a
// fixed-width 64-bit machine encoding is provided for the binary container
// and the attach tool.
package isa

import "fmt"

// Reg names an architectural register. Values 0..31 are the integer
// registers r0..r31 (r0 is hardwired to zero); values 32..63 are the
// floating-point registers f0..f31.
type Reg uint8

// Register file geometry and ABI registers.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	RegZero Reg = 0  // hardwired zero
	RegSP   Reg = 29 // stack pointer by convention
	RegRA   Reg = 31 // link register written by JAL/JALR

	// FP0 is the first floating-point register; FP0+i is f<i>.
	FP0 Reg = 32
)

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= FP0 }

// String renders the conventional register name (r7, f3, ...).
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", int(r-FP0))
	}
	return fmt.Sprintf("r%d", int(r))
}

// Op enumerates the SPISA opcodes.
type Op uint8

// Opcodes. The groups mirror PISA: integer ALU, immediates, memory,
// control transfer, and double-precision floating point.
const (
	INVALID Op = iota

	NOP
	HALT

	// Integer register-register.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Integer register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LUI

	// Memory. Effective address is R[Rs] + Imm.
	LB
	LBU
	LH
	LW
	LD
	SB
	SH
	SW
	SD
	FLD
	FSD

	// Control transfer. Branch/jump targets are absolute instruction
	// indices resolved by the assembler and stored in Imm.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	J
	JAL
	JR
	JALR

	// Double-precision floating point.
	FADD
	FSUB
	FMUL
	FDIV
	FSQRT
	FNEG
	FABS
	FMOV
	CVTLD // int64 -> float64 (Rd is FP, Rs is int)
	CVTDL // float64 -> int64, truncating (Rd is int, Rs is FP)
	FEQ   // Rd(int) = F[Rs]==F[Rt]
	FLT   // Rd(int) = F[Rs]< F[Rt]
	FLE   // Rd(int) = F[Rs]<=F[Rt]

	numOps
)

// NumOps is the number of defined opcodes (for table sizing and fuzzing).
const NumOps = int(numOps)

// Class buckets opcodes by the functional-unit pool and latency they use in
// the cycle model (Table 2 of the paper: 4 int ALUs + 1 int MUL/DIV, 4 FP
// ALUs + 1 FP MUL/DIV, 2 memory ports).
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMulDiv
	ClassFPALU
	ClassFPMulDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches and all jumps
	ClassHalt
)

type opInfo struct {
	name    string
	class   Class
	latency int // execution latency in cycles (loads add cache latency)
}

var opTable = [numOps]opInfo{
	INVALID: {"invalid", ClassNop, 1},
	NOP:     {"nop", ClassNop, 1},
	HALT:    {"halt", ClassHalt, 1},

	ADD:  {"add", ClassIntALU, 1},
	SUB:  {"sub", ClassIntALU, 1},
	MUL:  {"mul", ClassIntMulDiv, 3},
	DIV:  {"div", ClassIntMulDiv, 20},
	REM:  {"rem", ClassIntMulDiv, 20},
	AND:  {"and", ClassIntALU, 1},
	OR:   {"or", ClassIntALU, 1},
	XOR:  {"xor", ClassIntALU, 1},
	SLL:  {"sll", ClassIntALU, 1},
	SRL:  {"srl", ClassIntALU, 1},
	SRA:  {"sra", ClassIntALU, 1},
	SLT:  {"slt", ClassIntALU, 1},
	SLTU: {"sltu", ClassIntALU, 1},

	ADDI: {"addi", ClassIntALU, 1},
	ANDI: {"andi", ClassIntALU, 1},
	ORI:  {"ori", ClassIntALU, 1},
	XORI: {"xori", ClassIntALU, 1},
	SLLI: {"slli", ClassIntALU, 1},
	SRLI: {"srli", ClassIntALU, 1},
	SRAI: {"srai", ClassIntALU, 1},
	SLTI: {"slti", ClassIntALU, 1},
	LUI:  {"lui", ClassIntALU, 1},

	LB:  {"lb", ClassLoad, 1},
	LBU: {"lbu", ClassLoad, 1},
	LH:  {"lh", ClassLoad, 1},
	LW:  {"lw", ClassLoad, 1},
	LD:  {"ld", ClassLoad, 1},
	SB:  {"sb", ClassStore, 1},
	SH:  {"sh", ClassStore, 1},
	SW:  {"sw", ClassStore, 1},
	SD:  {"sd", ClassStore, 1},
	FLD: {"fld", ClassLoad, 1},
	FSD: {"fsd", ClassStore, 1},

	BEQ:  {"beq", ClassBranch, 1},
	BNE:  {"bne", ClassBranch, 1},
	BLT:  {"blt", ClassBranch, 1},
	BGE:  {"bge", ClassBranch, 1},
	BLTU: {"bltu", ClassBranch, 1},
	BGEU: {"bgeu", ClassBranch, 1},
	J:    {"j", ClassBranch, 1},
	JAL:  {"jal", ClassBranch, 1},
	JR:   {"jr", ClassBranch, 1},
	JALR: {"jalr", ClassBranch, 1},

	FADD:  {"fadd", ClassFPALU, 4},
	FSUB:  {"fsub", ClassFPALU, 4},
	FMUL:  {"fmul", ClassFPMulDiv, 4},
	FDIV:  {"fdiv", ClassFPMulDiv, 12},
	FSQRT: {"fsqrt", ClassFPMulDiv, 24},
	FNEG:  {"fneg", ClassFPALU, 1},
	FABS:  {"fabs", ClassFPALU, 1},
	FMOV:  {"fmov", ClassFPALU, 1},
	CVTLD: {"cvtld", ClassFPALU, 2},
	CVTDL: {"cvtdl", ClassFPALU, 2},
	FEQ:   {"feq", ClassFPALU, 1},
	FLT:   {"flt", ClassFPALU, 1},
	FLE:   {"fle", ClassFPALU, 1},
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Valid reports whether o names a defined opcode other than INVALID.
func (o Op) Valid() bool { return o > INVALID && int(o) < NumOps }

// Class returns the functional-unit class for the opcode.
func (o Op) Class() Class {
	if int(o) >= NumOps {
		return ClassNop
	}
	return opTable[o].class
}

// Latency returns the fixed execution latency of the opcode in cycles.
// Loads additionally pay the cache/memory access latency.
func (o Op) Latency() int {
	if int(o) >= NumOps {
		return 1
	}
	return opTable[o].latency
}

// IsLoad reports whether the opcode reads data memory.
func (o Op) IsLoad() bool { return o.Class() == ClassLoad }

// IsStore reports whether the opcode writes data memory.
func (o Op) IsStore() bool { return o.Class() == ClassStore }

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool { c := o.Class(); return c == ClassLoad || c == ClassStore }

// IsBranch reports whether the opcode is a conditional branch.
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return true
	}
	return false
}

// IsJump reports whether the opcode is an unconditional control transfer.
func (o Op) IsJump() bool {
	switch o {
	case J, JAL, JR, JALR:
		return true
	}
	return false
}

// IsControl reports whether the opcode changes control flow.
func (o Op) IsControl() bool { return o.IsBranch() || o.IsJump() }

// IsFP reports whether the opcode executes in the floating-point pipeline.
func (o Op) IsFP() bool {
	c := o.Class()
	return c == ClassFPALU || c == ClassFPMulDiv
}

// Instruction is one decoded SPISA instruction.
//
// Operand roles by format:
//   - reg-reg ALU/FP:   Rd = Rs op Rt
//   - reg-imm ALU:      Rd = Rs op Imm
//   - loads:            Rd = Mem[R[Rs]+Imm]
//   - stores:           Mem[R[Rs]+Imm] = R[Rt] (or F[Rt] for FSD)
//   - branches:         if R[Rs] cmp R[Rt], PC = Imm (absolute index)
//   - J/JAL:            PC = Imm; JAL writes return index to Rd
//   - JR:               PC = R[Rs]
//   - JALR:             Rd = return index; PC = R[Rs]
//
// Branch and jump targets are absolute instruction indices, not byte
// addresses: the text segment is word-addressed by instruction slot.
type Instruction struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Rt  Reg
	Imm int32
}

// Dest returns the destination register, if any. r0 writes are reported as
// no destination since they are architectural no-ops.
func (in Instruction) Dest() (Reg, bool) {
	switch in.Op.Class() {
	case ClassIntALU, ClassIntMulDiv, ClassFPALU, ClassFPMulDiv, ClassLoad:
		if in.Rd == RegZero {
			return 0, false
		}
		return in.Rd, true
	case ClassBranch:
		if (in.Op == JAL || in.Op == JALR) && in.Rd != RegZero {
			return in.Rd, true
		}
	}
	return 0, false
}

// Sources appends the source registers of the instruction to dst and
// returns the extended slice. r0 is never reported (it is constant).
func (in Instruction) Sources(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegZero {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case NOP, HALT, INVALID, J, JAL, LUI:
		// no register sources
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
		FADD, FSUB, FMUL, FDIV, FEQ, FLT, FLE:
		add(in.Rs)
		add(in.Rt)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI,
		FSQRT, FNEG, FABS, FMOV, CVTLD, CVTDL,
		JR, JALR:
		add(in.Rs)
	case LB, LBU, LH, LW, LD, FLD:
		add(in.Rs)
	case SB, SH, SW, SD, FSD:
		add(in.Rs)
		add(in.Rt)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		add(in.Rs)
		add(in.Rt)
	}
	return dst
}

// String disassembles the instruction.
func (in Instruction) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
		FADD, FSUB, FMUL, FDIV, FEQ, FLT, FLE:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %d", in.Rd, in.Imm)
	case LB, LBU, LH, LW, LD, FLD:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs)
	case SB, SH, SW, SD, FSD:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rt, in.Imm, in.Rs)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs, in.Rt, in.Imm)
	case J:
		return fmt.Sprintf("j @%d", in.Imm)
	case JAL:
		return fmt.Sprintf("jal %s, @%d", in.Rd, in.Imm)
	case JR:
		return fmt.Sprintf("jr %s", in.Rs)
	case JALR:
		return fmt.Sprintf("jalr %s, %s", in.Rd, in.Rs)
	case FSQRT, FNEG, FABS, FMOV, CVTLD, CVTDL:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	}
	return fmt.Sprintf("%s rd=%s rs=%s rt=%s imm=%d", in.Op, in.Rd, in.Rs, in.Rt, in.Imm)
}
