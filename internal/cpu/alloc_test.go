package cpu

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"spear/internal/prog"
	"spear/internal/spearcc"
)

// branchyGather sweeps a 1024-entry index array 16 times, gathering from a
// 4 MiB table. A serial divide chain keeps the RUU and the IFQ full, so
// d-loads arm triggers; a data-dependent branch after the gather
// mispredicts about once in eight iterations, and each flush kills the
// running session, so the p-thread re-triggers, re-copies its live-ins and
// re-activates every few hundred cycles. tableEntries bounds the indices.
func branchyGather(t *testing.T, seed int64, tableEntries int) *prog.Program {
	t.Helper()
	p := assemble(t, `
        .data
idx:    .space 8192          # 1024 * 8
tbl:    .space 4194304       # 512K * 8
        .text
main:   la   r1, idx
        la   r2, tbl
        li   r14, 0
        li   r15, 16
        li   r16, 3
sweep:  li   r3, 0
        li   r4, 1024
loop:   slli r5, r3, 3
        add  r6, r1, r5
        ld   r7, 0(r6)
        slli r8, r7, 3
        add  r9, r2, r8
dload:  ld   r10, 0(r9)
        andi r12, r7, 7
        bnez r12, skip
        add  r11, r11, r10
skip:   xor  r13, r13, r10
        div  r13, r13, r16     # serial: keeps the RUU and the IFQ full
        addi r3, r3, 1
        blt  r3, r4, loop
        addi r14, r14, 1
        blt  r14, r15, sweep
        halt
`)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 1024; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], uint64(r.Intn(tableEntries)))
	}
	return p
}

// TestStepCycleDoesNotAllocate pins that the cycle loop allocates nothing
// in steady state on a SPEAR machine: event-wheel buckets, ready lists,
// consumer lists, live-in producer lists and the p-thread store buffer
// all keep their storage from one use to the next. The binary is compiled
// on indices spread over the whole table, so it carries p-threads; the
// measured run gathers from 1024 table entries (8 KiB, resident in the L1
// after the first sweep), so the cache hierarchy's own maps stop growing
// too. The measured batches span session kills, re-triggers and live-in
// copies.
func TestStepCycleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opts := spearcc.DefaultOptions()
	opts.Profile.MaxInstr = 2_000_000
	p, _, err := spearcc.Compile(branchyGather(t, 5, 512*1024), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PThreads) == 0 {
		t.Fatal("compiler produced no p-threads")
	}
	p.Data = branchyGather(t, 6, 1024).Data
	s, err := newSim(p, SPEARConfig(128, false))
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if s.done() {
				t.Fatalf("program finished at cycle %d, before the measurement did", s.cycle)
			}
			s.stepCycle()
		}
	}
	step(20_000) // warm up: wheel buckets, lists and maps reach their working size

	triggers, copies, killed := s.res.Triggers, s.res.LiveInCopies, s.res.SessionsKilled
	if allocs := testing.AllocsPerRun(10, func() { step(2000) }); allocs != 0 {
		t.Errorf("stepCycle allocates %.2f times per 2000 cycles, want 0", allocs)
	}
	if s.res.Triggers == triggers || s.res.LiveInCopies == copies || s.res.SessionsKilled == killed {
		t.Errorf("measured cycles saw %d triggers, %d live-in copies, %d killed sessions; want each > 0",
			s.res.Triggers-triggers, s.res.LiveInCopies-copies, s.res.SessionsKilled-killed)
	}
}
