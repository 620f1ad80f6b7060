package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/prog"
	"spear/internal/stats"
)

// Deterministic, seedable fault injection for the speculative/architectural
// boundary. Every injection perturbs only the p-thread annotations (or the
// P-thread Table image the PE reads) of an attached binary — never the
// program text the main thread executes — and the verification asserts the
// containment invariant: main-thread final state and committed-instruction
// count are identical with and without SPEAR under any injected p-thread
// fault.

// FaultClass names one category of injected p-thread corruption.
type FaultClass string

const (
	// FaultCorruptMask adds random unrelated instructions to a p-thread's
	// slice mask, so the PE extracts code that was never a backward slice
	// (garbage addresses, runaway sessions).
	FaultCorruptMask FaultClass = "corrupt-mask"
	// FaultBogusTrigger retargets a p-thread onto a different static load,
	// so sessions trigger at the wrong point with the wrong slice.
	FaultBogusTrigger FaultClass = "bogus-trigger"
	// FaultTruncateLiveIns deletes live-in registers from a p-thread, so
	// the slice computes addresses from stale or zero register values.
	FaultTruncateLiveIns FaultClass = "truncate-live-ins"
	// FaultFlipOpcodeBits flips bits in the P-thread Table's image of a
	// member instruction (the main thread still decodes the real text).
	FaultFlipOpcodeBits FaultClass = "flip-opcode-bits"
)

// FaultClasses returns every injectable fault class.
func FaultClasses() []FaultClass {
	return []FaultClass{FaultCorruptMask, FaultBogusTrigger, FaultTruncateLiveIns, FaultFlipOpcodeBits}
}

// Injection is one perturbed binary ready to run: the program with
// corrupted annotations plus, for flip-opcode-bits, the PT image override
// to install in the machine configuration.
type Injection struct {
	Class    FaultClass
	Prog     *prog.Program
	Override map[int]isa.Instruction
	Desc     string
}

// Injector generates deterministic injections from a seed.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns an injector whose perturbations are a pure function
// of seed (and the injection order).
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Inject perturbs a clone of p according to class. The returned program
// still passes prog.Validate — the corruption is semantic (wrong slices,
// wrong triggers, wrong live-ins), the kind a buggy SPEAR compiler or a
// bit-flipped PT would produce, not a malformed binary.
func (inj *Injector) Inject(p *prog.Program, class FaultClass) (*Injection, error) {
	if len(p.PThreads) == 0 {
		return nil, fmt.Errorf("faultinject: %s has no p-threads to corrupt", p.Name)
	}
	c := p.Clone()
	pt := &c.PThreads[inj.rng.Intn(len(c.PThreads))]
	out := &Injection{Class: class, Prog: c}
	switch class {
	case FaultCorruptMask:
		// Mark 8-24 random unrelated instructions as slice members.
		extra := 8 + inj.rng.Intn(17)
		seen := map[int]bool{}
		for _, m := range pt.Members {
			seen[m] = true
		}
		added := 0
		for i := 0; i < extra*4 && added < extra; i++ {
			pc := inj.rng.Intn(len(c.Text))
			if !seen[pc] {
				seen[pc] = true
				pt.Members = append(pt.Members, pc)
				added++
			}
		}
		sort.Ints(pt.Members)
		out.Desc = fmt.Sprintf("d-load %d: %d bogus mask bits", pt.DLoad, added)
	case FaultBogusTrigger:
		// Retarget the p-thread onto a different static load.
		var loads []int
		for pc, in := range c.Text {
			if in.Op.IsLoad() && pc != pt.DLoad {
				loads = append(loads, pc)
			}
		}
		if len(loads) == 0 {
			return nil, fmt.Errorf("faultinject: %s has no alternative load for a bogus trigger", p.Name)
		}
		target := loads[inj.rng.Intn(len(loads))]
		pt.DLoad = target
		if !pt.HasMember(target) {
			pt.Members = append(pt.Members, target)
			sort.Ints(pt.Members)
		}
		out.Desc = fmt.Sprintf("trigger retargeted to load at pc %d", target)
	case FaultTruncateLiveIns:
		// Drop a random non-empty subset (possibly all) of the live-ins.
		n := len(pt.LiveIns)
		if n == 0 {
			out.Desc = "live-in set already empty"
			break
		}
		keep := inj.rng.Intn(n) // 0 .. n-1 survivors
		inj.rng.Shuffle(n, func(i, j int) { pt.LiveIns[i], pt.LiveIns[j] = pt.LiveIns[j], pt.LiveIns[i] })
		pt.LiveIns = pt.LiveIns[:keep]
		out.Desc = fmt.Sprintf("d-load %d: live-ins truncated %d -> %d", pt.DLoad, n, keep)
	case FaultFlipOpcodeBits:
		// Corrupt the PT's image of one member instruction. Flipping bit
		// 31 of the encoded word flips the immediate's sign bit, which for
		// a memory member turns its offset into a huge magnitude — the PE
		// will chase a garbage address while the main thread, reading the
		// real text, is unaffected. A second random low bit adds variety.
		// Memory members are preferred: the sign flip then lands directly
		// on an address offset.
		members := pt.Members
		if memMembers := make([]int, 0, len(members)); true {
			for _, m := range members {
				if c.Text[m].Op.IsMem() {
					memMembers = append(memMembers, m)
				}
			}
			if len(memMembers) > 0 {
				members = memMembers
			}
		}
		pc := members[inj.rng.Intn(len(members))]
		w := isa.Encode(c.Text[pc])
		w ^= 1 << 31
		w ^= 1 << uint(inj.rng.Intn(31))
		corrupted, err := isa.Decode(w)
		if err != nil {
			// The flip landed outside the immediate field in a way the
			// decoder rejects; keep just the guaranteed-valid sign flip.
			corrupted, err = isa.Decode(isa.Encode(c.Text[pc]) ^ 1<<31)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: bit flip undecodable: %w", p.Name, err)
			}
		}
		out.Override = map[int]isa.Instruction{pc: corrupted}
		out.Desc = fmt.Sprintf("PT image of pc %d: %s -> %s", pc, c.Text[pc], corrupted)
	default:
		return nil, fmt.Errorf("faultinject: unknown fault class %q", class)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("faultinject: %s/%s produced an invalid program: %w", p.Name, class, err)
	}
	return out, nil
}

// BaselineState runs the functional emulator to completion and returns the
// reference final-state hash and retired-instruction count that every
// injected run must reproduce.
func BaselineState(p *prog.Program, maxInstr uint64) (hash uint64, count uint64, err error) {
	m := emu.New(p)
	if err := m.Run(maxInstr); err != nil {
		return 0, 0, fmt.Errorf("faultinject: baseline emulation: %w", err)
	}
	return m.StateHash(), m.Count, nil
}

// ContainmentResult reports one injected run against the invariant.
type ContainmentResult struct {
	Class      FaultClass
	Desc       string
	Res        *cpu.Result
	Err        error
	StateMatch bool   // final architectural state equals the baseline's
	CountMatch bool   // committed instructions equal the baseline's
	Faults     uint64 // contained faults observed (PFault.Total())
	Suppressed uint64 // triggers suppressed by backoff
	// Skipped is the typed skip reason of a run that cancellation
	// stopped before it finished; such a run has no verdict.
	Skipped string
}

// Contained reports whether the run upheld the containment invariant.
func (r *ContainmentResult) Contained() bool {
	return r.Err == nil && r.StateMatch && r.CountMatch
}

// VerifyContainment runs one injection on a SPEAR machine and checks the
// architectural invariant against the baseline emulator state.
func VerifyContainment(inj *Injection, cfg cpu.Config, baseHash, baseCount uint64) *ContainmentResult {
	cfg.PTextOverride = inj.Override
	res, err := runProtected(context.Background(), inj.Prog, cfg, 0)
	return containment(inj, res, err, baseHash, baseCount)
}

// containment checks one injected run's outcome against the baseline
// emulator state.
func containment(inj *Injection, res *cpu.Result, err error, baseHash, baseCount uint64) *ContainmentResult {
	out := &ContainmentResult{Class: inj.Class, Desc: inj.Desc}
	if err != nil {
		out.Err = err
		return out
	}
	out.Res = res
	out.StateMatch = res.FinalStateHash == baseHash
	out.CountMatch = res.MainCommitted == baseCount
	out.Faults = res.PFault.Total()
	out.Suppressed = res.PFault.Suppressed
	return out
}

// FaultRow is one (kernel, class) entry of the fault-injection suite.
type FaultRow struct {
	Kernel string
	*ContainmentResult
}

// FaultSuite injects every fault class into every prepared kernel that has
// p-threads and verifies containment on SPEAR-128. The injections are
// deterministic in seed. Each injected run goes through the suite's run
// path (FaultHook, watchdog, ctx); a run that cancellation stops, or
// never starts, is a skipped row.
func (s *Suite) FaultSuite(ctx context.Context, seed int64) []FaultRow {
	inj := NewInjector(seed)
	cfg := cpu.SPEARConfig(128, false)
	var rows []FaultRow
	for _, p := range s.Prepared {
		if len(p.Ref.PThreads) == 0 {
			continue
		}
		if ctx.Err() != nil {
			for _, class := range FaultClasses() {
				rows = append(rows, FaultRow{Kernel: p.Kernel.Name,
					ContainmentResult: &ContainmentResult{Class: class, Skipped: SkipInterrupted}})
			}
			continue
		}
		baseHash, baseCount, err := BaselineState(p.Ref, 50_000_000)
		if err != nil {
			rows = append(rows, FaultRow{Kernel: p.Kernel.Name,
				ContainmentResult: &ContainmentResult{Err: err}})
			continue
		}
		for _, class := range FaultClasses() {
			s.Opts.logf("inject %s into %s", class, p.Kernel.Name)
			injection, err := inj.Inject(p.Ref, class)
			if err != nil {
				rows = append(rows, FaultRow{Kernel: p.Kernel.Name,
					ContainmentResult: &ContainmentResult{Class: class, Err: err}})
				continue
			}
			cfg.PTextOverride = injection.Override
			run := &Prepared{Kernel: p.Kernel, Ref: injection.Prog}
			res, err := s.runOnce(ctx, run, cfg, "inject/"+string(class))
			r := containment(injection, res, err, baseHash, baseCount)
			if interrupted(err) {
				r = &ContainmentResult{Class: class, Desc: injection.Desc, Skipped: SkipInterrupted}
			}
			rows = append(rows, FaultRow{Kernel: p.Kernel.Name, ContainmentResult: r})
		}
	}
	return rows
}

// RenderFaultSuite formats the fault-injection verification table.
func RenderFaultSuite(rows []FaultRow) string {
	t := stats.NewTable("kernel", "fault class", "contained", "faults", "suppressed", "IPC")
	ok, skipped := 0, 0
	for _, r := range rows {
		if r.Skipped != "" {
			t.AddSpanRow(r.Kernel, fmt.Sprintf("[%s] skipped: %s", r.Class, r.Skipped))
			skipped++
			continue
		}
		if r.Err != nil {
			t.AddSpanRow(r.Kernel, fmt.Sprintf("[%s] ERROR: %v", r.Class, r.Err))
			continue
		}
		verdict := "YES"
		if !r.Contained() {
			verdict = "NO"
		} else {
			ok++
		}
		ipc := ""
		if r.Res != nil {
			ipc = fmt.Sprintf("%.3f", r.Res.IPC)
		}
		t.AddRow(r.Kernel, string(r.Class), verdict, r.Faults, r.Suppressed, ipc)
	}
	note := ""
	if skipped > 0 {
		note = fmt.Sprintf(", %d skipped", skipped)
	}
	return fmt.Sprintf("Fault injection: speculative containment invariant (%d/%d contained%s)\n%s",
		ok, len(rows)-skipped, note, t.String())
}
