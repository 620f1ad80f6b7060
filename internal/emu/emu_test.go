package emu

import (
	"math"
	"testing"

	"spear/internal/asm"
	"spear/internal/isa"
)

// run assembles and runs src to completion, returning the machine.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestSumLoop(t *testing.T) {
	m := run(t, `
main:   li   r1, 0       # sum
        li   r2, 1       # i
        li   r3, 100
loop:   add  r1, r1, r2
        addi r2, r2, 1
        bge  r3, r2, loop
        halt
`)
	if m.R[1] != 5050 {
		t.Errorf("sum = %d, want 5050", m.R[1])
	}
}

func TestFibonacciRecursive(t *testing.T) {
	// Exercises JAL/JR, the stack, and loads/stores together.
	m := run(t, `
main:   li   r4, 10
        call fib
        halt
# fib(n in r4) -> r2
fib:    slti r5, r4, 2
        beqz r5, rec
        mv   r2, r4
        ret
rec:    addi sp, sp, -24
        sd   ra, 0(sp)
        sd   r4, 8(sp)
        addi r4, r4, -1
        call fib
        sd   r2, 16(sp)
        ld   r4, 8(sp)
        addi r4, r4, -2
        call fib
        ld   r6, 16(sp)
        add  r2, r2, r6
        ld   ra, 0(sp)
        addi sp, sp, 24
        ret
`)
	if m.R[2] != 55 {
		t.Errorf("fib(10) = %d, want 55", m.R[2])
	}
}

func TestMemoryWidthsAndSignExtension(t *testing.T) {
	m := run(t, `
        .data
b:      .byte 0xFF
        .align 2
h:      .word 0
        .text
main:   li   r1, -1
        sb   r1, b(r0)
        lb   r2, b(r0)
        lbu  r3, b(r0)
        li   r4, -2
        sh   r4, h(r0)
        lh   r5, h(r0)
        li   r6, -3
        sw   r6, h(r0)
        lw   r7, h(r0)
        halt
`)
	if m.R[2] != -1 {
		t.Errorf("lb = %d, want -1", m.R[2])
	}
	if m.R[3] != 255 {
		t.Errorf("lbu = %d, want 255", m.R[3])
	}
	if m.R[5] != -2 {
		t.Errorf("lh = %d, want -2", m.R[5])
	}
	if m.R[7] != -3 {
		t.Errorf("lw = %d, want -3", m.R[7])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
        .data
x:      .double 9.0
        .text
main:   fld   f1, x(r0)
        fsqrt f2, f1
        fadd  f3, f2, f2
        li    r1, 4
        cvtld f4, r1
        fmul  f5, f3, f4      # 24
        fdiv  f6, f5, f2      # 8
        fsub  f7, f6, f4      # 4
        fneg  f8, f7
        fabs  f9, f8
        cvtdl r2, f9
        flt   r3, f4, f5
        fle   r4, f5, f5
        feq   r5, f4, f9
        halt
`)
	if m.F[2] != 3.0 {
		t.Errorf("fsqrt = %v", m.F[2])
	}
	if m.F[5] != 24.0 || m.F[6] != 8.0 || m.F[7] != 4.0 {
		t.Errorf("fp chain: %v %v %v", m.F[5], m.F[6], m.F[7])
	}
	if m.R[2] != 4 {
		t.Errorf("cvtdl = %d", m.R[2])
	}
	if m.R[3] != 1 || m.R[4] != 1 || m.R[5] != 1 {
		t.Errorf("fp compares = %d %d %d, want all 1", m.R[3], m.R[4], m.R[5])
	}
}

func TestShiftAndLogic(t *testing.T) {
	m := run(t, `
main:   li   r1, 0xF0
        li   r2, 4
        sll  r3, r1, r2
        srl  r4, r3, r2
        li   r5, -16
        sra  r6, r5, r2
        slli r7, r1, 8
        srli r8, r7, 8
        srai r9, r5, 2
        andi r10, r1, 0x3C
        ori  r11, r0, 0x5
        xori r12, r11, 0xF
        slt  r13, r5, r1
        sltu r14, r5, r1
        slti r15, r5, 0
        halt
`)
	checks := map[int]int64{
		3: 0xF00, 4: 0xF0, 6: -1, 7: 0xF000, 8: 0xF0, 9: -4,
		10: 0x30, 11: 5, 12: 0xA, 13: 1, 14: 0, 15: 1,
	}
	for r, want := range checks {
		if m.R[r] != want {
			t.Errorf("r%d = %d, want %d", r, m.R[r], want)
		}
	}
}

func TestDivRemAndByZero(t *testing.T) {
	m := run(t, `
main:   li r1, 17
        li r2, 5
        div r3, r1, r2
        rem r4, r1, r2
        div r5, r1, r0
        rem r6, r1, r0
        li r7, -17
        div r8, r7, r2
        rem r9, r7, r2
        halt
`)
	if m.R[3] != 3 || m.R[4] != 2 {
		t.Errorf("div/rem = %d,%d", m.R[3], m.R[4])
	}
	if m.R[5] != 0 || m.R[6] != 0 {
		t.Errorf("div/rem by zero = %d,%d, want 0,0", m.R[5], m.R[6])
	}
	if m.R[8] != -3 || m.R[9] != -2 {
		t.Errorf("negative div/rem = %d,%d", m.R[8], m.R[9])
	}
}

func TestBranchVariants(t *testing.T) {
	m := run(t, `
main:   li r1, -1
        li r2, 1
        li r10, 0
        blt r1, r2, a
        halt
a:      addi r10, r10, 1
        bltu r1, r2, fail     # unsigned: 0xFFFF... is not < 1
        bge r2, r1, c
        halt
c:      addi r10, r10, 1
        bgeu r1, r2, d        # unsigned: huge >= 1
        halt
d:      addi r10, r10, 1
        halt
fail:   li r10, -99
        halt
`)
	if m.R[10] != 3 {
		t.Errorf("branch path counter = %d, want 3", m.R[10])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, `
main:   addi r0, r0, 5
        add  r0, r0, r0
        li   r1, 7
        add  r2, r0, r1
        halt
`)
	if m.R[0] != 0 {
		t.Errorf("r0 = %d, want 0", m.R[0])
	}
	if m.R[2] != 7 {
		t.Errorf("r2 = %d, want 7", m.R[2])
	}
}

func TestLUI(t *testing.T) {
	m := run(t, "main: lui r1, 3\nhalt")
	if m.R[1] != 3<<16 {
		t.Errorf("lui = %d", m.R[1])
	}
}

func TestRunLimit(t *testing.T) {
	p, err := asm.Assemble("loop.s", "main: j main")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if err := m.Run(100); err != ErrLimit {
		t.Errorf("Run returned %v, want ErrLimit", err)
	}
	if m.Count != 100 {
		t.Errorf("count = %d, want 100", m.Count)
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := run(t, "main: halt")
	if err := m.Step(); err == nil {
		t.Error("Step after halt succeeded")
	}
}

func TestHookObservesEvents(t *testing.T) {
	p, err := asm.Assemble("t.s", `
        .data
v:      .quad 42
        .text
main:   ld r1, v(r0)
        beq r1, r0, main
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	var events []Event
	m.Hook = func(ev *Event) { events = append(events, *ev) }
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("observed %d events, want 3", len(events))
	}
	if !events[0].IsMem || events[0].Addr != asm.DataBase {
		t.Errorf("load event = %+v", events[0])
	}
	if events[1].Instr.Op != isa.BEQ || events[1].Taken {
		t.Errorf("branch event = %+v", events[1])
	}
	if events[1].NextPC != 2 {
		t.Errorf("branch NextPC = %d, want 2", events[1].NextPC)
	}
}

// TestStepDoesNotAllocate pins that retiring an instruction allocates
// nothing in steady state: the Event handed to Hook lives in the Machine,
// and a hook that copies it keeps it off the heap too.
func TestStepDoesNotAllocate(t *testing.T) {
	p, err := asm.Assemble("loop.s", `
        .data
v:      .space 8
        .text
main:   ld   r1, v(r0)
        addi r1, r1, 1
        sd   r1, v(r0)
        beq  r1, r0, main
        j    main
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	var last Event
	m.Hook = func(ev *Event) { last = *ev }
	step := func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step() // touch the data page before measuring
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("Step allocates %.2f times per instruction, want 0", allocs)
	}
	if last.Seq != m.Count-1 {
		t.Errorf("hook saw seq %d, want %d", last.Seq, m.Count-1)
	}
}

func TestCVTDLOfNaN(t *testing.T) {
	m := run(t, `
        .data
z:      .double 0.0
        .text
main:   fld f1, z(r0)
        fdiv f2, f1, f1      # 0/0 = NaN
        cvtdl r1, f2
        halt
`)
	if !math.IsNaN(m.F[2]) {
		t.Fatalf("expected NaN, got %v", m.F[2])
	}
	if m.R[1] != 0 {
		t.Errorf("cvtdl(NaN) = %d, want 0", m.R[1])
	}
}

func TestStackPointerInitialized(t *testing.T) {
	p, _ := asm.Assemble("t.s", "main: halt")
	m := New(p)
	if m.R[isa.RegSP] != int64(StackTop) {
		t.Errorf("sp = %#x, want %#x", m.R[isa.RegSP], StackTop)
	}
}
