package cpu

import (
	"fmt"
	"sort"
	"strings"

	"spear/internal/isa"
	"spear/internal/obs"
)

// This file implements speculative fault containment. P-threads run a
// backward slice ahead of the main thread on potentially stale register
// values, so they may compute garbage addresses, divide by zero, or (with a
// corrupted P-thread Table) run away entirely. Real pre-execution hardware
// must silently squash such helper-thread exceptions rather than raise
// them; here every p-thread fault squashes the current session, bumps a
// typed counter in Result.PFault, and leaves the main thread's
// architectural state provably untouched.
//
// A per-d-load confidence counter with exponential backoff disables
// p-threads that fault repeatedly, degrading SPEAR gracefully toward the
// baseline machine instead of burning extraction bandwidth (or cache
// bandwidth) on a slice that never produces useful prefetches.

// PFaultKind classifies a contained p-thread fault.
type PFaultKind uint8

const (
	PFaultNone PFaultKind = iota
	// PFaultOOB is a p-thread memory access outside the plausible data
	// window [pMemFloor, pMemCeil): null-page dereferences and addresses
	// past the stack.
	PFaultOOB
	// PFaultMisaligned is a p-thread memory access not aligned to its
	// natural size.
	PFaultMisaligned
	// PFaultDivZero is an integer divide/remainder with a zero divisor in
	// the p-thread context. (The main thread defines division by zero as
	// yielding 0; a speculative slice reaching it on stale values is
	// almost certainly chasing garbage, so the session is squashed.)
	PFaultDivZero
	// PFaultBudget is a session that exceeded its instruction or cycle
	// budget — a runaway slice, typically from a corrupted PT.
	PFaultBudget
)

func (k PFaultKind) String() string {
	switch k {
	case PFaultNone:
		return "none"
	case PFaultOOB:
		return "oob"
	case PFaultMisaligned:
		return "misaligned"
	case PFaultDivZero:
		return "div-zero"
	case PFaultBudget:
		return "budget"
	default:
		return fmt.Sprintf("PFaultKind(%d)", uint8(k))
	}
}

// FaultStats counts contained p-thread faults and the backoff machinery's
// reactions. All containment is invisible to the main thread; these
// counters are the only architecturally visible trace of a fault.
type FaultStats struct {
	OOB        uint64 // out-of-range p-thread memory accesses
	Misaligned uint64 // misaligned p-thread memory accesses
	DivZero    uint64 // integer division by zero in the p-thread
	Budget     uint64 // sessions squashed for exceeding their budget
	Disabled   uint64 // times a p-thread was disabled by backoff
	Suppressed uint64 // triggers suppressed while a p-thread was disabled
}

// Total returns the number of contained faults (excluding backoff events).
func (f *FaultStats) Total() uint64 {
	return f.OOB + f.Misaligned + f.DivZero + f.Budget
}

func (f *FaultStats) count(k PFaultKind) {
	switch k {
	case PFaultOOB:
		f.OOB++
	case PFaultMisaligned:
		f.Misaligned++
	case PFaultDivZero:
		f.DivZero++
	case PFaultBudget:
		f.Budget++
	}
}

// The plausible p-thread data window. Below pMemFloor is the null page
// (workload data starts at asm.DataBase, far above); at or above pMemCeil
// is past the stack (emu.StackTop < pMemCeil). Main-thread accesses are
// never checked against this — the window exists only to catch speculative
// slices that wandered off into garbage.
const (
	pMemFloor uint32 = 0x1000
	pMemCeil  uint32 = 0x8000_0000
)

// classifyPAddr checks a p-thread effective address against the fault
// model. size is the access width in bytes.
func classifyPAddr(addr uint32, size int) PFaultKind {
	if addr < pMemFloor || addr >= pMemCeil || pMemCeil-addr < uint32(size) {
		return PFaultOOB
	}
	if size > 1 && addr%uint32(size) != 0 {
		return PFaultMisaligned
	}
	return PFaultNone
}

// memAccessSize returns the access width of a memory opcode, 0 for
// non-memory instructions.
func memAccessSize(op isa.Op) int {
	switch op {
	case isa.LB, isa.LBU, isa.SB:
		return 1
	case isa.LH, isa.SH:
		return 2
	case isa.LW, isa.SW:
		return 4
	case isa.LD, isa.SD, isa.FLD, isa.FSD:
		return 8
	}
	return 0
}

// ptHealth is the per-d-load fault confidence state. A p-thread that
// faults PFaultThreshold times in a row is disabled for its current
// backoff window; each disable doubles the window (up to
// PFaultBackoffMax), and each session that reaches its d-load cleanly
// halves it again, so transiently unlucky p-threads re-arm quickly while
// pathological ones stay off the machine.
type ptHealth struct {
	streak       int    // consecutive faulted sessions
	backoff      uint64 // current disable window, in cycles
	disabledTill uint64 // cycle at which the p-thread re-arms
}

// ptDisabled reports whether the p-thread keyed by d-load pc is currently
// disabled by backoff.
func (s *sim) ptDisabled(pc int) bool {
	h := s.health[pc]
	return h != nil && s.cycle < h.disabledTill
}

// containFault squashes the active session in response to a p-thread
// fault: the faulting instruction is never dispatched (so a garbage
// address never touches the cache hierarchy), the p-thread register state
// is invalidated, and the machine returns to normal mode until the next
// trigger. Instructions already extracted keep draining through the
// p-thread context, exactly as on a flush-induced session death.
func (s *sim) containFault(kind PFaultKind) {
	s.res.PFault.count(kind)
	key := s.sess.pt.DLoad
	h := s.health[key]
	if h == nil {
		h = &ptHealth{backoff: s.cfg.PFaultBackoff}
		s.health[key] = h
	}
	h.streak++
	if s.cfg.PFaultThreshold > 0 && h.streak >= s.cfg.PFaultThreshold {
		if h.backoff == 0 {
			h.backoff = s.cfg.PFaultBackoff
		}
		if h.backoff > 0 {
			h.disabledTill = s.cycle + h.backoff
			s.res.PFault.Disabled++
			if h.backoff < s.cfg.PFaultBackoffMax {
				h.backoff *= 2
				if max := s.cfg.PFaultBackoffMax; max > 0 && h.backoff > max {
					h.backoff = max
				}
			}
		}
		h.streak = 0
	}
	if s.obsOn() {
		s.traceFault(kind)
		s.traceSession(obs.KindSessionEnd, "fault:"+kind.String())
		s.traceTrigger("fault contained: " + kind.String())
	}
	s.mode = modeNormal
	s.pStateValid = false
}

// recordCleanSession decays the fault state of the p-thread keyed by
// d-load pc after a session reached its d-load without faulting.
func (s *sim) recordCleanSession(pc int) {
	if h := s.health[pc]; h != nil {
		h.streak = 0
		h.backoff >>= 1
	}
}

// DeadlockError carries the diagnostic state dump produced when the
// pipeline exhausts MaxCycles without retiring the program. It unwraps to
// ErrDeadlock, so errors.Is(err, ErrDeadlock) keeps working.
type DeadlockError struct {
	Cycle     uint64 // cycle count at abort
	Committed uint64 // main-thread instructions committed
	Retired   uint64 // instructions the oracle had retired (fetched)
	Dump      string // human-readable pipeline state dump
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("%v after %d cycles (%d/%d instructions committed)",
		ErrDeadlock, e.Cycle, e.Committed, e.Retired)
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// dumpState renders the front-end, back-end, and SPEAR session state for
// deadlock diagnostics.
func (s *sim) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d  config %s\n", s.cycle, s.cfg.Name)
	fmt.Fprintf(&b, "fetch: wrongPath=%v wrongPC=%d resumeAt=%d oracleHalted=%v oracleCount=%d mainHalted=%v\n",
		s.wrongPath, s.wrongPC, s.fetchResumeAt, s.oracle.Halted, s.oracle.Count, s.mainHalted)
	fmt.Fprintf(&b, "IFQ: head=%d tail=%d occupancy=%d/%d\n", s.ifqHead, s.ifqTail, s.ifqCount(), s.cfg.IFQSize)
	for i, pos := 0, s.ifqHead; i < 4 && pos < s.ifqTail; i, pos = i+1, pos+1 {
		fe := &s.ifq[pos&s.ifqMask]
		fmt.Fprintf(&b, "  ifq[%d] pc=%d %s bogus=%v marked=%v extracted=%v\n",
			pos, fe.pc, fe.in.String(), fe.bogus, fe.marked, fe.extracted)
	}
	names := [2]string{"main", "p"}
	for tid := 0; tid < 2; tid++ {
		q := &s.ruu[tid]
		fmt.Fprintf(&b, "RUU[%s]: head=%d tail=%d occupancy=%d/%d  LSQ occupancy=%d/%d\n",
			names[tid], q.head, q.tail, q.count(), q.size,
			s.lsq[tid].count(), s.lsq[tid].size)
		for i, pos := 0, q.head; i < 4 && pos < q.tail; i, pos = i+1, pos+1 {
			e := q.at(pos)
			if !e.valid {
				continue
			}
			fmt.Fprintf(&b, "  ruu[%d] pc=%d %s state=%d waitCnt=%d addr=%#x\n",
				pos, e.pc, e.in.String(), e.state, e.waitCnt, e.addr)
		}
	}
	modeNames := [...]string{"normal", "drain", "copy", "active"}
	fmt.Fprintf(&b, "SPEAR: mode=%s pScanPos=%d pStateValid=%v\n", modeNames[s.mode], s.pScanPos, s.pStateValid)
	if s.mode != modeNormal && s.sess.pt != nil {
		fmt.Fprintf(&b, "session: dload=%d scanPos=%d drainLeft=%d copyIdx=%d extracted=%d startCycle=%d\n",
			s.sess.pt.DLoad, s.sess.scanPos, s.sess.drainLeft, s.sess.copyIdx, s.sess.extracted, s.sess.startCycle)
	}
	if len(s.health) > 0 {
		keys := make([]int, 0, len(s.health))
		for pc := range s.health {
			keys = append(keys, pc)
		}
		sort.Ints(keys)
		for _, pc := range keys {
			h := s.health[pc]
			fmt.Fprintf(&b, "health: dload=%d streak=%d backoff=%d disabledTill=%d\n",
				pc, h.streak, h.backoff, h.disabledTill)
		}
	}
	fmt.Fprintf(&b, "faults: oob=%d misaligned=%d divzero=%d budget=%d disabled=%d suppressed=%d\n",
		s.res.PFault.OOB, s.res.PFault.Misaligned, s.res.PFault.DivZero,
		s.res.PFault.Budget, s.res.PFault.Disabled, s.res.PFault.Suppressed)
	return b.String()
}
