package cpu

import (
	"math"

	"spear/internal/isa"
	"spear/internal/obs"
)

// This file implements the SPEAR-specific hardware: pre-decode marking
// (PD), the trigger state machine with live-in copying, the p-thread
// extractor (PE), and the p-thread's functional evaluation.
//
// Because the IFQ is filled strictly in fetch order and is flushed only as
// a whole, an entry's monotonic ring position always equals its fetch
// sequence number; the code below relies on that to address IFQ entries by
// sequence.

// triggerOccupancy is the queue depth required to arm (and keep) a
// pre-execution session.
func (s *sim) triggerOccupancy() int {
	return int(s.cfg.TriggerFraction * float64(s.cfg.IFQSize))
}

// preDecode marks p-thread member instructions as they enter the IFQ and
// arms the trigger when a delinquent load is detected with enough
// prefetching distance in the queue (at least half the IFQ occupied).
func (s *sim) preDecode(fe *ifqEntry) {
	if !s.cfg.SPEAR {
		return
	}
	fe.marked = s.marked[fe.pc]
	if s.mode != modeNormal || s.ptFor[fe.pc] == nil {
		return
	}
	if s.ifqCount() < s.triggerOccupancy() {
		return
	}
	if s.ptDisabled(fe.pc) {
		// Backoff: this p-thread faulted repeatedly; stay on the baseline
		// path until its disable window expires.
		s.res.PFault.Suppressed++
		return
	}
	pt := s.ptFor[fe.pc]
	s.res.Triggers++
	if s.cfg.SoftwareTrigger {
		// The spawn sequence (find a free context, assign it, copy the
		// live-ins with ordinary instructions) occupies the shared
		// front end: fetch stalls while it runs, which both starves the
		// main thread and drains the prefetch distance the queue had
		// accumulated.
		if resume := s.cycle + uint64(s.cfg.SpawnOverhead); resume > s.fetchResumeAt {
			s.fetchResumeAt = resume
		}
	}

	// Continuation: if the p-thread head is still ahead of main-thread
	// decode, the p-thread register state is exactly aligned with the
	// next unextracted instruction and the new session extends the
	// running pre-execution without a fresh live-in copy. The
	// software-trigger model has no such persistent hardware state:
	// every session pays the full spawn.
	if !s.cfg.SoftwareTrigger && s.pStateValid && s.pScanPos >= s.ifqHead {
		s.mode = modeActive
		s.sess = session{pt: pt, dloadSeq: fe.seq, scanPos: s.pScanPos, startCycle: s.cycle, producers: s.sess.producers[:0]}
		s.sessID++
		s.traceTrigger("armed (continuation)")
		s.traceSession(obs.KindSessionBegin, "continuation")
		return
	}

	// Re-alignment: snapshot the live-in values as of the current IFQ
	// head and record their in-flight producers; the copy waits for
	// those values to actually exist.
	s.mode = modeDrain
	s.sess = session{
		pt:         pt,
		dloadSeq:   fe.seq,
		drainLeft:  s.cfg.TriggerDrainCycles,
		snapshot:   s.shadow,
		startCycle: s.cycle,
		producers:  s.sess.producers[:0],
	}
	for _, r := range s.allLiveIns {
		if !s.createOk[tidMain][r] {
			continue
		}
		pr := s.createVec[tidMain][r]
		if pe := s.ruu[tidMain].get(pr); pe != nil && pe.state != stDone {
			s.sess.producers = append(s.sess.producers, pr)
		}
	}
	s.sessID++
	s.traceTrigger("armed (re-align)")
	s.traceSession(obs.KindSessionBegin, "re-align")
}

// triggerStage advances the trigger state machine: wait for the decode
// stage to drain to a deterministic state, then copy live-in values from
// the committed register state at one register per cycle.
func (s *sim) triggerStage() {
	switch s.mode {
	case modeDrain:
		// "Waits until all instructions which are already decoded have
		// been committed ... before the live-in values can be copied":
		// the values handed to the p-thread must deterministically
		// exist. We model the copy as a rename-map read, so the wait is
		// the decode-latch drain plus the completion of every in-flight
		// live-in producer. The snapshot is refreshed while waiting so
		// that the copied values track the advancing IFQ head.
		s.sess.drainLeft--
		if s.sess.drainLeft > 0 {
			return
		}
		if !s.producersDone() {
			s.refreshSnapshot()
			return
		}
		s.mode = modeCopy
		s.sess.copyIdx = 0
		if len(s.allLiveIns) == 0 {
			s.activateSession()
		}
	case modeCopy:
		// One register per cycle (Section 3.2's one-cycle-per-copy
		// assumption); the values are latched at activation so that
		// they correspond exactly to the IFQ head the PE scans from.
		s.res.LiveInCopies++
		s.sess.copyIdx++
		if s.sess.copyIdx >= len(s.allLiveIns) {
			s.activateSession()
		}
	}
}

// refreshSnapshot re-latches the live-in values and their in-flight
// producers to the current IFQ head while the drain is waiting.
func (s *sim) refreshSnapshot() {
	s.sess.snapshot = s.shadow
	s.sess.producers = s.sess.producers[:0]
	for _, r := range s.allLiveIns {
		if !s.createOk[tidMain][r] {
			continue
		}
		pr := s.createVec[tidMain][r]
		if pe := s.ruu[tidMain].get(pr); pe != nil && pe.state != stDone {
			s.sess.producers = append(s.sess.producers, pr)
		}
	}
}

// producersDone reports whether every live-in producer recorded at trigger
// time has computed its value (committed or squashed entries count as
// done: their values reached the register file or the session will be
// killed by the same flush).
func (s *sim) producersDone() bool {
	for _, pr := range s.sess.producers {
		if pe := s.ruu[tidMain].get(pr); pe != nil && pe.state != stDone {
			return false
		}
	}
	return true
}

func (s *sim) activateSession() {
	s.mode = modeActive
	// The p-thread registers get the trigger-time snapshot: the newest
	// values the hardware could copy once their producers completed.
	// Extraction restarts at the current IFQ head, whose entries the
	// snapshot corresponds to.
	for _, r := range s.allLiveIns {
		s.pregs[r] = s.sess.snapshot[r]
	}
	s.sess.scanPos = s.ifqHead
	clear(s.pscratch)
	for r := range s.createOk[tidP] {
		s.createOk[tidP][r] = false
	}
	s.pStateValid = true
}

// killSession ends an armed or extracting session whose IFQ source was
// flushed away. Instructions already extracted into the p-thread context
// keep draining — the context is a separate SMT thread that main-thread
// recovery does not flush. Sessions that complete normally never pass
// through here (see finishExtraction).
func (s *sim) killSession() {
	s.res.SessionsKilled++
	s.traceSession(obs.KindSessionEnd, "killed")
	s.mode = modeNormal
	s.pStateValid = false
}

// extractStage is the PE: in pre-execution mode it scans IFQ entries from
// the p-thread head, extracts marked instructions (clearing their
// indicator), evaluates them functionally on the p-thread register file,
// and dispatches them into the p-thread context.
//
// Extracting an instance of a delinquent load completes one pre-execution
// session; with the prefetching-distance condition still satisfied
// (occupancy at least half the IFQ), the next session chains immediately
// onto the marked instructions already sitting in the queue — the hardware
// equivalent of the PD having detected those d-loads at pre-decode while
// the machine was busy. The PE deactivates when it runs out of queued
// instructions and the distance condition no longer holds; a fetch-time
// d-load detection then re-arms it.
//
// It returns the number of decode slots consumed.
func (s *sim) extractStage() int {
	if s.mode != modeActive {
		return 0
	}
	if b := s.cfg.PSessionCycleBudget; b > 0 && s.cycle-s.sess.startCycle > b {
		// Runaway session: active far longer than any useful prefetch
		// lead time. Squash and count it.
		s.containFault(PFaultBudget)
		return 0
	}
	if s.sess.scanPos < s.ifqHead {
		// Main-thread decode overran the p-thread head: instructions
		// (including induction updates) were lost, so the p-thread
		// state is stale. End pre-execution mode so the next fetch-time
		// d-load detection re-arms with a fresh live-in copy.
		s.sess.scanPos = s.ifqHead
		s.pStateValid = false
		s.finishExtraction("stale")
		return 0
	}
	extracted := 0
	for scanned := 0; scanned < s.cfg.ScanWidth && extracted < s.cfg.ExtractWidth; scanned++ {
		if s.sess.scanPos >= s.ifqTail {
			// Ran dry. Stay armed while the queue is deep enough for
			// timely prefetching; otherwise deactivate.
			if s.ifqCount() < s.triggerOccupancy() {
				s.finishExtraction("done")
			}
			break
		}
		fe := &s.ifq[s.sess.scanPos&s.ifqMask]
		if !fe.marked || fe.extracted {
			s.sess.scanPos++
			continue
		}
		if b := s.cfg.PSessionBudget; b > 0 && s.sess.extracted >= b {
			// The slice between two d-load instances should be a handful
			// of instructions; a session this long is a runaway (e.g. a
			// corrupted mask marking whole loop bodies). Squash it.
			s.containFault(PFaultBudget)
			break
		}
		ok, faulted := s.dispatchPThread(fe)
		if !ok {
			// Either structural stall (resume here next cycle) or a
			// contained fault (mode left modeActive; loop exits).
			if faulted {
				fe.extracted = true // never retry a faulting instruction
			}
			break
		}
		fe.extracted = true
		extracted++
		s.res.Extracted++
		s.sess.extracted++
		if s.ptFor[fe.pc] != nil {
			s.res.SessionsDone++
			s.sess.extracted = 0 // budget is per chained session
			s.recordCleanSession(fe.pc)
		}
		s.sess.scanPos++
	}
	s.pScanPos = s.sess.scanPos
	return extracted
}

// finishExtraction deactivates the PE: the machine returns to normal mode
// so a later fetch-time d-load detection can arm a new trigger. Extracted
// instructions keep draining through the p-thread context; their
// prefetches are in flight. reason goes to the session-end event ("done"
// when the PE ran dry, "stale" when decode overran the p-thread head).
func (s *sim) finishExtraction(reason string) {
	s.traceSession(obs.KindSessionEnd, reason)
	s.pScanPos = s.sess.scanPos
	s.mode = modeNormal
}

// dispatchPThread evaluates one extracted instruction on the p-thread
// state and enters it into the p-thread context for timing. ok is false
// when the instruction did not dispatch: either structural resources are
// exhausted (retry next cycle) or the instruction faulted and the session
// was squashed (faulted is true; the faulting op never reaches the
// p-thread context or the cache hierarchy).
func (s *sim) dispatchPThread(fe *ifqEntry) (ok, faulted bool) {
	in := fe.in
	if ov, exists := s.cfg.PTextOverride[fe.pc]; exists {
		// Fault injection: the PE reads a corrupted P-thread Table image;
		// the main thread keeps decoding the real text.
		in = ov
	}
	q := &s.ruu[tidP]
	if q.full() {
		return false, false
	}
	needLSQ := in.Op.IsMem()
	if needLSQ && s.lsq[tidP].full() {
		return false, false
	}
	outcome, fault := s.evalP(in, fe.pc)
	if fault != PFaultNone {
		s.containFault(fault)
		return false, true
	}
	pos, e := q.push()
	seq := s.pseq
	s.pseq++
	e.valid = true
	e.seq = seq
	e.pc = fe.pc
	e.in = in
	e.isLoad = in.Op.IsLoad()
	e.isStore = in.Op.IsStore()
	e.addr = outcome.addr
	e.hasDest = outcome.hasDest
	e.destReg = outcome.destReg
	e.destVal = outcome.destVal
	if needLSQ {
		lq := &s.lsq[tidP]
		lpos := lq.tail
		lq.tail++
		*lq.at(lpos) = lsqEntry{valid: true, seq: seq, ruuPos: pos, isStore: e.isStore, addr: e.addr, addrKnown: true}
		e.lsqPos = lpos
		e.hasLSQ = true
	}
	s.wireSources(tidP, pos, e)
	s.traceDispatch(tidP, e)
	return true, false
}

// pOutcome is the functional result of a p-thread instruction.
type pOutcome struct {
	addr    uint32
	hasDest bool
	destReg isa.Reg
	destVal uint64
}

// pReadInt / pReadF access the p-thread register file.
func (s *sim) pReadInt(r isa.Reg) int64 {
	if r == isa.RegZero {
		return 0
	}
	return int64(s.pregs[r])
}

func (s *sim) pReadF(r isa.Reg) float64 { return math.Float64frombits(s.pregs[r]) }

// pLoad reads byte-wise, preferring the p-thread's private scratch buffer
// (its stores never reach architectural memory). It peeks the shared image
// without materializing pages: a speculative read of a never-written
// address must leave no trace in the architectural memory map.
func (s *sim) pLoad(addr uint32, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		b, ok := s.pscratch[a]
		if !ok {
			b = s.oracle.Mem.PeekU8(a)
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (s *sim) pStore(addr uint32, size int, v uint64) {
	for i := 0; i < size; i++ {
		s.pscratch[addr+uint32(i)] = byte(v >> (8 * i))
	}
}

// evalP executes one p-thread instruction functionally, in extraction
// order, against the p-thread register file, the shared memory image, and
// the private store buffer. Control-flow instructions are inert: the
// p-thread's control flow is dictated by the main thread's fetch stream.
//
// Faults are detected before any state changes: a memory access outside
// the plausible data window or misaligned, and an integer division by
// zero, return a non-None PFaultKind with the register file, scratch
// buffer, and (crucially) the shared memory image untouched.
func (s *sim) evalP(in isa.Instruction, pc int) (pOutcome, PFaultKind) {
	var out pOutcome
	if size := memAccessSize(in.Op); size > 0 {
		addr := uint32(s.pReadInt(in.Rs) + int64(in.Imm))
		if k := classifyPAddr(addr, size); k != PFaultNone {
			out.addr = addr
			return out, k
		}
	}
	switch in.Op {
	case isa.DIV, isa.REM:
		if s.pReadInt(in.Rt) == 0 {
			return out, PFaultDivZero
		}
	}
	setInt := func(rd isa.Reg, v int64) {
		if rd == isa.RegZero {
			return
		}
		s.pregs[rd] = uint64(v)
		out.hasDest, out.destReg, out.destVal = true, rd, uint64(v)
	}
	setF := func(rd isa.Reg, v float64) {
		bits := math.Float64bits(v)
		s.pregs[rd] = bits
		out.hasDest, out.destReg, out.destVal = true, rd, bits
	}
	rs, rt := in.Rs, in.Rt
	switch in.Op {
	case isa.ADD:
		setInt(in.Rd, s.pReadInt(rs)+s.pReadInt(rt))
	case isa.SUB:
		setInt(in.Rd, s.pReadInt(rs)-s.pReadInt(rt))
	case isa.MUL:
		setInt(in.Rd, s.pReadInt(rs)*s.pReadInt(rt))
	case isa.DIV:
		setInt(in.Rd, s.pReadInt(rs)/s.pReadInt(rt)) // zero divisor faulted above
	case isa.REM:
		setInt(in.Rd, s.pReadInt(rs)%s.pReadInt(rt))
	case isa.AND:
		setInt(in.Rd, s.pReadInt(rs)&s.pReadInt(rt))
	case isa.OR:
		setInt(in.Rd, s.pReadInt(rs)|s.pReadInt(rt))
	case isa.XOR:
		setInt(in.Rd, s.pReadInt(rs)^s.pReadInt(rt))
	case isa.SLL:
		setInt(in.Rd, s.pReadInt(rs)<<(uint64(s.pReadInt(rt))&63))
	case isa.SRL:
		setInt(in.Rd, int64(uint64(s.pReadInt(rs))>>(uint64(s.pReadInt(rt))&63)))
	case isa.SRA:
		setInt(in.Rd, s.pReadInt(rs)>>(uint64(s.pReadInt(rt))&63))
	case isa.SLT:
		setInt(in.Rd, bool2i(s.pReadInt(rs) < s.pReadInt(rt)))
	case isa.SLTU:
		setInt(in.Rd, bool2i(uint64(s.pReadInt(rs)) < uint64(s.pReadInt(rt))))
	case isa.ADDI:
		setInt(in.Rd, s.pReadInt(rs)+int64(in.Imm))
	case isa.ANDI:
		setInt(in.Rd, s.pReadInt(rs)&int64(in.Imm))
	case isa.ORI:
		setInt(in.Rd, s.pReadInt(rs)|int64(in.Imm))
	case isa.XORI:
		setInt(in.Rd, s.pReadInt(rs)^int64(in.Imm))
	case isa.SLLI:
		setInt(in.Rd, s.pReadInt(rs)<<(uint32(in.Imm)&63))
	case isa.SRLI:
		setInt(in.Rd, int64(uint64(s.pReadInt(rs))>>(uint32(in.Imm)&63)))
	case isa.SRAI:
		setInt(in.Rd, s.pReadInt(rs)>>(uint32(in.Imm)&63))
	case isa.SLTI:
		setInt(in.Rd, bool2i(s.pReadInt(rs) < int64(in.Imm)))
	case isa.LUI:
		setInt(in.Rd, int64(in.Imm)<<16)

	case isa.LB:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setInt(in.Rd, int64(int8(s.pLoad(out.addr, 1))))
	case isa.LBU:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setInt(in.Rd, int64(uint8(s.pLoad(out.addr, 1))))
	case isa.LH:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setInt(in.Rd, int64(int16(s.pLoad(out.addr, 2))))
	case isa.LW:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setInt(in.Rd, int64(int32(s.pLoad(out.addr, 4))))
	case isa.LD:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setInt(in.Rd, int64(s.pLoad(out.addr, 8)))
	case isa.FLD:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		setF(in.Rd, math.Float64frombits(s.pLoad(out.addr, 8)))
	case isa.SB:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		s.pStore(out.addr, 1, uint64(s.pReadInt(rt)))
	case isa.SH:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		s.pStore(out.addr, 2, uint64(s.pReadInt(rt)))
	case isa.SW:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		s.pStore(out.addr, 4, uint64(s.pReadInt(rt)))
	case isa.SD:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		s.pStore(out.addr, 8, uint64(s.pReadInt(rt)))
	case isa.FSD:
		out.addr = uint32(s.pReadInt(rs) + int64(in.Imm))
		s.pStore(out.addr, 8, s.pregs[rt])

	case isa.FADD:
		setF(in.Rd, s.pReadF(rs)+s.pReadF(rt))
	case isa.FSUB:
		setF(in.Rd, s.pReadF(rs)-s.pReadF(rt))
	case isa.FMUL:
		setF(in.Rd, s.pReadF(rs)*s.pReadF(rt))
	case isa.FDIV:
		setF(in.Rd, s.pReadF(rs)/s.pReadF(rt))
	case isa.FSQRT:
		setF(in.Rd, math.Sqrt(s.pReadF(rs)))
	case isa.FNEG:
		setF(in.Rd, -s.pReadF(rs))
	case isa.FABS:
		setF(in.Rd, math.Abs(s.pReadF(rs)))
	case isa.FMOV:
		setF(in.Rd, s.pReadF(rs))
	case isa.CVTLD:
		setF(in.Rd, float64(s.pReadInt(rs)))
	case isa.CVTDL:
		f := s.pReadF(rs)
		if math.IsNaN(f) {
			setInt(in.Rd, 0)
		} else {
			setInt(in.Rd, int64(f))
		}
	case isa.FEQ:
		setInt(in.Rd, bool2i(s.pReadF(rs) == s.pReadF(rt)))
	case isa.FLT:
		setInt(in.Rd, bool2i(s.pReadF(rs) < s.pReadF(rt)))
	case isa.FLE:
		setInt(in.Rd, bool2i(s.pReadF(rs) <= s.pReadF(rt)))
	case isa.JAL, isa.JALR:
		setInt(in.Rd, int64(pc+1))
	default:
		// Branches, J, JR, NOP, HALT: no p-thread effect.
	}
	return out, PFaultNone
}

func bool2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
