package cpu

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/prog"
)

// These tests exercise the speculative fault-containment layer with crafted
// p-thread annotations: each scenario forces one fault class and asserts the
// containment invariant — the run completes, the typed counter is nonzero,
// and the main thread's final architectural state is exactly the functional
// emulator's.

// annotate attaches a hand-built p-thread to p and revalidates.
func annotate(t *testing.T, p *prog.Program, dload int, members []int, liveIns []isa.Reg) {
	t.Helper()
	sort.Ints(members)
	p.PThreads = append(p.PThreads, prog.PThread{
		DLoad:       dload,
		Members:     members,
		LiveIns:     liveIns,
		RegionStart: members[0],
		RegionEnd:   members[len(members)-1],
	})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// emuFinal returns the functional emulator's final-state hash and retired
// instruction count — the reference every contained run must reproduce.
func emuFinal(t *testing.T, p *prog.Program) (hash, count uint64) {
	t.Helper()
	m := emu.New(p)
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("emulator: %v", err)
	}
	return m.StateHash(), m.Count
}

func spearTestConfig() Config {
	cfg := SPEARConfig(128, false)
	cfg.MaxCycles = 50_000_000
	return cfg
}

// checkContained asserts the architectural invariant against the emulator.
func checkContained(t *testing.T, p *prog.Program, res *Result) {
	t.Helper()
	hash, count := emuFinal(t, p)
	if res.MainCommitted != count {
		t.Errorf("committed %d instructions, emulator retired %d", res.MainCommitted, count)
	}
	if res.FinalStateHash != hash {
		t.Errorf("final state hash %#x, emulator %#x", res.FinalStateHash, hash)
	}
}

// contiguous returns the pc range [from, to] as a member list.
func contiguous(from, to int) []int {
	m := make([]int, 0, to-from+1)
	for pc := from; pc <= to; pc++ {
		m = append(m, pc)
	}
	return m
}

func TestContainOOB(t *testing.T) {
	p := pointerishKernel(t, 11)
	dload := p.Labels["dload"]
	// No live-ins: the p-thread reads the base register as zero and chases
	// address 0 — a null-page dereference — on every session.
	annotate(t, p, dload, []int{dload}, nil)

	res, err := Run(p, spearTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PFault.OOB == 0 {
		t.Errorf("no OOB faults contained: %+v", res.PFault)
	}
	if res.PrefetchLoads != 0 {
		t.Errorf("%d faulting loads reached the cache hierarchy", res.PrefetchLoads)
	}
	checkContained(t, p, res)
}

// misalignedKernel is the gather kernel with a deliberately odd load
// address: the main thread handles it fine (byte-wise memory), but a
// p-thread slicing the load always trips the alignment check.
func misalignedKernel(t *testing.T, seed int64) *prog.Program {
	t.Helper()
	p := assemble(t, `
        .data
idx:    .space 65536         # 8192 * 8
tbl:    .space 4194304       # 512K * 8
        .text
main:   la   r1, idx
        la   r2, tbl
        li   r3, 0
        li   r4, 8192
loop:   slli r5, r3, 3
        add  r6, r1, r5
        ld   r7, 0(r6)
        slli r8, r7, 3
        add  r9, r2, r8
dload:  ld   r10, 1(r9)
        add  r11, r11, r10
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 8192; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], uint64(r.Intn(512*1024-1)))
	}
	return p
}

func TestContainMisaligned(t *testing.T) {
	p := misalignedKernel(t, 13)
	dload := p.Labels["dload"]
	annotate(t, p, dload, []int{dload}, []isa.Reg{9})

	res, err := Run(p, spearTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PFault.Misaligned == 0 {
		t.Errorf("no misaligned faults contained: %+v", res.PFault)
	}
	checkContained(t, p, res)
}

func TestContainDivZero(t *testing.T) {
	p := assemble(t, `
        .data
idx:    .space 65536
tbl:    .space 4194304
        .text
main:   la   r1, idx
        la   r2, tbl
        li   r3, 0
        li   r4, 8192
        li   r13, 1
loop:   slli r5, r3, 3
        add  r6, r1, r5
        ld   r7, 0(r6)
        div  r8, r7, r13
        slli r8, r8, 3
        add  r9, r2, r8
dload:  ld   r10, 0(r9)
        add  r11, r11, r10
        addi r3, r3, 1
        blt  r3, r4, loop
        halt
`)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 8192; i++ {
		binary.LittleEndian.PutUint64(p.Data[0].Bytes[8*i:], uint64(r.Intn(512*1024)))
	}
	// The slice includes the div but not r13 as a live-in, so the p-thread
	// divides by an uninitialized (zero) register while the main thread
	// divides by one.
	loop, dload := p.Labels["loop"], p.Labels["dload"]
	annotate(t, p, dload, contiguous(loop, dload), []isa.Reg{1, 2, 3})

	res, err := Run(p, spearTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.PFault.DivZero == 0 {
		t.Errorf("no div-zero faults contained: %+v", res.PFault)
	}
	checkContained(t, p, res)
}

func TestContainBudget(t *testing.T) {
	t.Run("instructions", func(t *testing.T) {
		p := pointerishKernel(t, 19)
		loop, dload := p.Labels["loop"], p.Labels["dload"]
		annotate(t, p, dload, contiguous(loop, dload), []isa.Reg{1, 2, 3})
		cfg := spearTestConfig()
		cfg.PSessionBudget = 3 // the slice is 6 long: every session runs away
		res, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PFault.Budget == 0 {
			t.Errorf("no budget faults contained: %+v", res.PFault)
		}
		checkContained(t, p, res)
	})
	t.Run("cycles", func(t *testing.T) {
		p := compileSPEAR(t, 21, 22)
		cfg := spearTestConfig()
		cfg.PSessionCycleBudget = 1 // no real session fits in one cycle
		res, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PFault.Budget == 0 {
			t.Errorf("no cycle-budget faults contained: %+v", res.PFault)
		}
		checkContained(t, p, res)
	})
}

// TestFaultBackoffDegradesToBaseline drives a pathologically faulting
// p-thread and checks that exponential backoff keeps the machine within a
// few percent of baseline IPC instead of burning every cycle on doomed
// sessions.
func TestFaultBackoffDegradesToBaseline(t *testing.T) {
	p := pointerishKernel(t, 23)
	dload := p.Labels["dload"]
	annotate(t, p, dload, []int{dload}, nil) // faults OOB on every session

	base, err := Run(p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Run(p, spearTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sp.PFault.OOB == 0 || sp.PFault.Disabled == 0 || sp.PFault.Suppressed == 0 {
		t.Fatalf("backoff machinery idle: %+v", sp.PFault)
	}
	if ratio := sp.IPC / base.IPC; ratio < 0.95 {
		t.Errorf("pathological faulting dragged IPC to %.1f%% of baseline", 100*ratio)
	}
	checkContained(t, p, sp)
	t.Logf("baseline IPC %.3f, faulting-SPEAR IPC %.3f; %d faults, %d disables, %d suppressed",
		base.IPC, sp.IPC, sp.PFault.Total(), sp.PFault.Disabled, sp.PFault.Suppressed)
}

// TestPTextOverrideIsolation corrupts the PT image of the delinquent load
// (fault injection) and checks the main thread — which decodes the real
// text — is bit-for-bit unaffected.
func TestPTextOverrideIsolation(t *testing.T) {
	p := compileSPEAR(t, 123, 456)
	dload := p.PThreads[0].DLoad
	corrupted := p.Text[dload]
	corrupted.Imm++ // aligned 8-byte load becomes an odd-address load

	clean, err := Run(p, spearTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := spearTestConfig()
	cfg.PTextOverride = map[int]isa.Instruction{dload: corrupted}
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PFault.Misaligned == 0 {
		t.Errorf("corrupted PT image produced no faults: %+v", res.PFault)
	}
	if res.MainCommitted != clean.MainCommitted {
		t.Errorf("override changed the main thread: %d vs %d committed", res.MainCommitted, clean.MainCommitted)
	}
	if res.FinalStateHash != clean.FinalStateHash {
		t.Error("override changed the main thread's final state")
	}
	checkContained(t, p, res)
}

// TestStateHashMachineIndependent checks the central invariant directly:
// baseline, SPEAR, and the emulator agree on the final state fingerprint.
func TestStateHashMachineIndependent(t *testing.T) {
	p := compileSPEAR(t, 31, 32)
	hash, count := emuFinal(t, p)
	for _, cfg := range []Config{fastConfig(), spearTestConfig()} {
		res, err := Run(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.MainCommitted != count || res.FinalStateHash != hash {
			t.Errorf("%s: state (%d, %#x) differs from emulator (%d, %#x)",
				cfg.Name, res.MainCommitted, res.FinalStateHash, count, hash)
		}
	}
}

func TestDeadlockDump(t *testing.T) {
	p := pointerishKernel(t, 37)
	cfg := spearTestConfig()
	cfg.MaxCycles = 2000 // boot the pipeline, then abort mid-flight
	_, err := Run(p, cfg)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Error("DeadlockError does not unwrap to ErrDeadlock")
	}
	if dl.Cycle != 2000 {
		t.Errorf("abort cycle = %d", dl.Cycle)
	}
	for _, want := range []string{"IFQ:", "RUU[main]", "fetch:", "faults:"} {
		if !strings.Contains(dl.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dl.Dump)
		}
	}
}

func TestDivergenceDetected(t *testing.T) {
	p := assemble(t, corePrograms["straightline"])
	s, err := newSim(p, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.runLoop(); err != nil {
		t.Fatal(err)
	}
	s.res.MainCommitted++ // simulate a lost retirement
	if _, err := s.finish(); !errors.Is(err, ErrDivergence) {
		t.Errorf("err = %v, want ErrDivergence", err)
	}
}

func TestValidationErrorsWrapped(t *testing.T) {
	p := assemble(t, corePrograms["straightline"])
	cfg := fastConfig()
	cfg.FetchWidth = 0
	if _, err := Run(p, cfg); !errors.Is(err, ErrValidation) {
		t.Errorf("config error = %v, want ErrValidation", err)
	}
	bad := assemble(t, corePrograms["straightline"])
	bad.PThreads = append(bad.PThreads, prog.PThread{DLoad: 9999, Members: []int{9999}})
	if _, err := Run(bad, fastConfig()); !errors.Is(err, ErrValidation) {
		t.Errorf("program error = %v, want ErrValidation", err)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.PSessionBudget = -1 },
		func(c *Config) { c.PFaultThreshold = -1 },
		func(c *Config) { c.PFaultThreshold = 2; c.PFaultBackoff = 0 },
	}
	for i, mut := range bad {
		c := SPEARConfig(128, false)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad fault config accepted", i)
		}
	}
}

func TestClassifyPAddr(t *testing.T) {
	cases := []struct {
		addr uint32
		size int
		want PFaultKind
	}{
		{0, 8, PFaultOOB},             // null page
		{pMemFloor - 1, 1, PFaultOOB}, // last byte below the window
		{pMemFloor, 8, PFaultNone},    // first legal aligned address
		{pMemCeil, 1, PFaultOOB},      // first byte past the window
		{0xFFFF_FFFF, 8, PFaultOOB},   // wraparound guard
		{pMemCeil - 4, 8, PFaultOOB},  // access straddles the ceiling
		{pMemCeil - 8, 8, PFaultNone}, // last legal 8-byte slot
		{0x0010_0001, 2, PFaultMisaligned},
		{0x0010_0004, 8, PFaultMisaligned},
		{0x0010_0001, 1, PFaultNone}, // bytes have no alignment
	}
	for _, c := range cases {
		if got := classifyPAddr(c.addr, c.size); got != c.want {
			t.Errorf("classifyPAddr(%#x, %d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
}
