package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{RegZero, "r0"}, {Reg(7), "r7"}, {RegSP, "r29"}, {RegRA, "r31"},
		{FP0, "f0"}, {FP0 + 15, "f15"}, {FP0 + 31, "f31"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegIsFP(t *testing.T) {
	if Reg(31).IsFP() {
		t.Error("r31 reported as FP")
	}
	if !FP0.IsFP() {
		t.Error("f0 not reported as FP")
	}
}

func TestOpClassCoverage(t *testing.T) {
	// Every defined op must have a name and a positive latency.
	for op := Op(1); int(op) < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
		if op.Latency() <= 0 {
			t.Errorf("op %s has non-positive latency", op)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !LW.IsLoad() || LW.IsStore() {
		t.Error("LW predicate wrong")
	}
	if !SD.IsStore() || SD.IsLoad() {
		t.Error("SD predicate wrong")
	}
	if !FLD.IsLoad() || !FSD.IsStore() {
		t.Error("FP memory predicates wrong")
	}
	if !BEQ.IsBranch() || BEQ.IsJump() {
		t.Error("BEQ predicate wrong")
	}
	if !J.IsJump() || J.IsBranch() {
		t.Error("J predicate wrong")
	}
	if !FADD.IsFP() || ADD.IsFP() {
		t.Error("FP predicates wrong")
	}
	for _, op := range []Op{BEQ, BNE, BLT, BGE, BLTU, BGEU, J, JAL, JR, JALR} {
		if !op.IsControl() {
			t.Errorf("%s not control", op)
		}
	}
	if ADD.IsControl() || LW.IsControl() {
		t.Error("non-control op reported as control")
	}
}

func TestOpByName(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v; want %v,true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
}

func TestDest(t *testing.T) {
	cases := []struct {
		in   Instruction
		reg  Reg
		want bool
	}{
		{Instruction{Op: ADD, Rd: 3, Rs: 1, Rt: 2}, 3, true},
		{Instruction{Op: ADD, Rd: RegZero, Rs: 1, Rt: 2}, 0, false}, // write to r0 discarded
		{Instruction{Op: LW, Rd: 5, Rs: 1}, 5, true},
		{Instruction{Op: SW, Rs: 1, Rt: 2}, 0, false},
		{Instruction{Op: BEQ, Rs: 1, Rt: 2}, 0, false},
		{Instruction{Op: JAL, Rd: RegRA}, RegRA, true},
		{Instruction{Op: J}, 0, false},
		{Instruction{Op: FLD, Rd: FP0 + 2, Rs: 1}, FP0 + 2, true},
		{Instruction{Op: FADD, Rd: FP0, Rs: FP0 + 1, Rt: FP0 + 2}, FP0, true},
	}
	for _, c := range cases {
		r, ok := c.in.Dest()
		if ok != c.want || (ok && r != c.reg) {
			t.Errorf("%v.Dest() = %v,%v; want %v,%v", c.in, r, ok, c.reg, c.want)
		}
	}
}

func TestSources(t *testing.T) {
	srcs := func(in Instruction) []Reg { return in.Sources(nil) }
	if got := srcs(Instruction{Op: ADD, Rd: 3, Rs: 1, Rt: 2}); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ADD sources = %v", got)
	}
	if got := srcs(Instruction{Op: ADDI, Rd: 3, Rs: RegZero, Imm: 4}); len(got) != 0 {
		t.Errorf("ADDI r0 source should be omitted, got %v", got)
	}
	if got := srcs(Instruction{Op: SW, Rs: 4, Rt: 5}); len(got) != 2 {
		t.Errorf("SW sources = %v", got)
	}
	if got := srcs(Instruction{Op: J, Imm: 9}); len(got) != 0 {
		t.Errorf("J sources = %v", got)
	}
	if got := srcs(Instruction{Op: JR, Rs: RegRA}); len(got) != 1 || got[0] != RegRA {
		t.Errorf("JR sources = %v", got)
	}
	if got := srcs(Instruction{Op: FSD, Rs: 2, Rt: FP0 + 7}); len(got) != 2 || got[1] != FP0+7 {
		t.Errorf("FSD sources = %v", got)
	}
}

func randInstr(r *rand.Rand) Instruction {
	return Instruction{
		Op:  Op(1 + r.Intn(NumOps-1)),
		Rd:  Reg(r.Intn(NumRegs)),
		Rs:  Reg(r.Intn(NumRegs)),
		Rt:  Reg(r.Intn(NumRegs)),
		Imm: int32(r.Uint32()),
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(opRaw uint8, rd, rs, rt uint8, imm int32) bool {
		in := Instruction{
			Op:  Op(1 + int(opRaw)%(NumOps-1)),
			Rd:  Reg(rd % NumRegs),
			Rs:  Reg(rs % NumRegs),
			Rt:  Reg(rt % NumRegs),
			Imm: imm,
		}
		out, err := Decode(Encode(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	if _, err := Decode(uint64(200) << 56); err == nil {
		t.Error("Decode accepted undefined opcode 200")
	}
	if _, err := Decode(0); err == nil {
		t.Error("Decode accepted INVALID opcode")
	}
}

func TestDecodeRejectsBadRegister(t *testing.T) {
	w := Encode(Instruction{Op: ADD, Rd: 3, Rs: 1, Rt: 2})
	w |= uint64(200) << 48 // corrupt Rd
	if _, err := Decode(w); err == nil {
		t.Error("Decode accepted out-of-range register")
	}
}

func TestEncodeDecodeText(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	text := make([]Instruction, 257)
	for i := range text {
		text[i] = randInstr(r)
	}
	got, err := DecodeText(EncodeText(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(text) {
		t.Fatalf("length %d, want %d", len(got), len(text))
	}
	for i := range text {
		if got[i] != text[i] {
			t.Fatalf("instruction %d: got %v want %v", i, got[i], text[i])
		}
	}
}

func TestDecodeTextBadLength(t *testing.T) {
	if _, err := DecodeText(make([]byte, 9)); err == nil {
		t.Error("DecodeText accepted non-multiple-of-8 input")
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, "add r1, r2, r3"},
		{Instruction{Op: ADDI, Rd: 1, Rs: 2, Imm: -7}, "addi r1, r2, -7"},
		{Instruction{Op: LW, Rd: 4, Rs: 29, Imm: 16}, "lw r4, 16(r29)"},
		{Instruction{Op: SD, Rs: 29, Rt: 4, Imm: 8}, "sd r4, 8(r29)"},
		{Instruction{Op: BEQ, Rs: 1, Rt: 0, Imm: 12}, "beq r1, r0, @12"},
		{Instruction{Op: J, Imm: 3}, "j @3"},
		{Instruction{Op: JR, Rs: 31}, "jr r31"},
		{Instruction{Op: FADD, Rd: FP0, Rs: FP0 + 1, Rt: FP0 + 2}, "fadd f0, f1, f2"},
		{Instruction{Op: FSD, Rs: 5, Rt: FP0 + 3, Imm: 0}, "fsd f3, 0(r5)"},
		{Instruction{Op: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
