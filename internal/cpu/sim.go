package cpu

import (
	"context"
	"errors"
	"fmt"

	"spear/internal/bpred"
	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/mem"
	"spear/internal/obs"
	"spear/internal/perf"
	"spear/internal/prog"
)

// Thread IDs. The main program is context 0; the p-thread is context 1.
// They alias the hierarchy-wide constants so that every per-thread
// statistics array (here and in internal/mem) is indexed consistently.
const (
	tidMain = mem.TidMain
	tidP    = mem.TidHelper
)

// ErrDeadlock is returned when the pipeline stops making progress. The
// error returned by Run wraps it in a DeadlockError carrying a pipeline
// state dump; match with errors.Is(err, ErrDeadlock) or errors.As.
var ErrDeadlock = errors.New("cpu: no progress (deadlock or MaxCycles exceeded)")

// ErrValidation wraps configuration or program validation failures.
var ErrValidation = errors.New("cpu: validation failed")

// ErrDivergence is returned when the pipeline retires a different
// instruction count than the functional oracle — a simulator bug, never a
// workload property.
var ErrDivergence = errors.New("cpu: pipeline diverged from the oracle")

// ErrInterrupted is returned when the run's context ends (cancelled or
// past its deadline).
var ErrInterrupted = errors.New("cpu: run interrupted")

// entry states.
const (
	stDispatched = iota
	stReady
	stIssued
	stDone
)

// ref names an RUU entry by thread, ring position, and sequence number.
// The sequence number detects stale references after squashes.
type ref struct {
	tid int
	pos uint64
	seq uint64
}

type ruuEntry struct {
	valid bool
	seq   uint64
	pc    int
	in    isa.Instruction
	bogus bool

	state     uint8
	waitCnt   int
	consumers []ref

	// Control.
	isCond      bool
	predTaken   bool
	actualTaken bool
	mispredict  bool // resolves to a fetch redirect
	isHalt      bool

	// Memory.
	isLoad  bool
	isStore bool
	addr    uint32
	lsqPos  uint64
	hasLSQ  bool

	// Destination, for the commit-time shadow register state.
	hasDest bool
	destReg isa.Reg
	destVal uint64
}

// ringLen rounds a configured queue size up to a power of two. Ring
// storage of that length is indexed by pos&(ringLen-1), so the hot loop
// never divides; the configured size alone decides when a queue is full.
func ringLen(size int) int {
	n := 1
	for n < size {
		n <<= 1
	}
	return n
}

// ruuQ is a ring-buffer Register Update Unit for one hardware context.
type ruuQ struct {
	entries []ruuEntry // power-of-two storage, indexed pos&mask
	mask    uint64
	size    int    // configured capacity
	head    uint64 // oldest position
	tail    uint64 // next free position
}

func newRUU(size int) ruuQ {
	n := ringLen(size)
	return ruuQ{entries: make([]ruuEntry, n), mask: uint64(n - 1), size: size}
}

func (q *ruuQ) count() int              { return int(q.tail - q.head) }
func (q *ruuQ) full() bool              { return q.count() == q.size }
func (q *ruuQ) empty() bool             { return q.head == q.tail }
func (q *ruuQ) at(pos uint64) *ruuEntry { return &q.entries[pos&q.mask] }

// push appends a zero entry in state stDispatched and returns its
// position. The slot is cleared and filled in place (a struct literal
// assigned through a pointer is built on the stack and copied); its
// consumer list keeps its storage.
func (q *ruuQ) push() (uint64, *ruuEntry) {
	pos := q.tail
	q.tail++
	e := q.at(pos)
	consumers := e.consumers[:0]
	*e = ruuEntry{}
	e.consumers = consumers
	return pos, e
}

// get resolves a ref, returning nil when it is stale.
func (q *ruuQ) get(r ref) *ruuEntry {
	if r.pos < q.head || r.pos >= q.tail {
		return nil
	}
	e := q.at(r.pos)
	if !e.valid || e.seq != r.seq {
		return nil
	}
	return e
}

type lsqEntry struct {
	valid     bool
	seq       uint64
	ruuPos    uint64
	isStore   bool
	addr      uint32
	addrKnown bool
}

type lsqQ struct {
	entries []lsqEntry // power-of-two storage, indexed pos&mask
	mask    uint64
	size    int // configured capacity
	head    uint64
	tail    uint64
}

func newLSQ(size int) lsqQ {
	n := ringLen(size)
	return lsqQ{entries: make([]lsqEntry, n), mask: uint64(n - 1), size: size}
}

func (q *lsqQ) count() int              { return int(q.tail - q.head) }
func (q *lsqQ) full() bool              { return q.count() == q.size }
func (q *lsqQ) at(pos uint64) *lsqEntry { return &q.entries[pos&q.mask] }

type ifqEntry struct {
	seq   uint64
	pc    int
	in    isa.Instruction
	bogus bool

	// P-thread indicator bits set at pre-decode.
	marked    bool
	extracted bool

	// Oracle-resolved outcome (on-trace entries only).
	taken      bool
	isMem      bool
	addr       uint32
	hasDest    bool
	destReg    isa.Reg
	destVal    uint64
	predTaken  bool
	mispredict bool
	isCond     bool
}

// trigger/session modes.
const (
	modeNormal = iota
	modeDrain
	modeCopy
	modeActive
)

type session struct {
	pt        *prog.PThread
	dloadSeq  uint64 // IFQ sequence of the triggering d-load instance
	scanPos   uint64 // the "p-thread head" IFQ pointer
	drainLeft int
	copyIdx   int

	extracted  int    // instructions extracted since the last d-load (budget)
	startCycle uint64 // cycle the session armed (cycle budget)

	// Live-in sourcing: the values are snapshotted at trigger time (the
	// state at the then-current IFQ head), but the copy may only proceed
	// once every in-flight producer of a live-in register has actually
	// computed — the hardware cannot copy a value that does not exist
	// yet. This is what makes pre-execution useless on serial pointer
	// chases: the live-in chain never gets ahead of the machine.
	snapshot  [isa.NumRegs]uint64
	producers []ref
}

type sim struct {
	cfg    Config
	ctx    context.Context
	prog   *prog.Program
	oracle *emu.Machine
	hier   *mem.Hierarchy
	pred   *bpred.Predictor
	res    Result

	cycle uint64

	// IFQ (circular FIFO with monotonic positions). The storage is
	// rounded up to a power of two; cfg.IFQSize bounds the occupancy.
	ifq     []ifqEntry
	ifqMask uint64
	ifqHead uint64
	ifqTail uint64

	// Fetch state.
	fetchSeq      uint64
	wrongPath     bool
	wrongPC       int // -1: fetch stalled until redirect
	fetchResumeAt uint64
	lastEv        *emu.Event // the oracle's last retired instruction
	mainHalted    bool       // HALT committed

	// Back end.
	ruu       [2]ruuQ
	lsq       [2]lsqQ
	ready     [2][]ref
	readyNext [2][]ref
	createVec [2][isa.NumRegs]ref
	createOk  [2][isa.NumRegs]bool

	// Completion event ring, indexed by cycle.
	evq     [][]ref
	evqMask uint64

	// Per-cycle structural resources.
	memPortsUsed int
	fuUsed       [2][8]int // per-tid pools; shared mode uses index 0

	// Dispatch-time register state: the values the main thread will have
	// when execution reaches the current IFQ head. This is the live-in
	// source for p-thread triggering — the hardware equivalent is a copy
	// through the rename map once the producers have drained from the
	// decode stage.
	shadow [isa.NumRegs]uint64

	stride *stridePrefetcher

	// SPEAR state.
	ptFor  []*prog.PThread // PC-indexed; non-nil at delinquent loads
	marked []bool
	mode   int
	sess   session
	pseq   uint64 // p-thread instruction sequence counter (all sessions)

	occAccum uint64 // sum of per-cycle IFQ occupancy

	// Dead-cycle skipping (skip.go): skip mirrors skipDeadCycles at
	// construction; skipped counts the cycles jumped over.
	skip    bool
	skipped uint64

	// The persistent "p-thread head" (Section 3.2): where the PE resumes
	// scanning. While it stays ahead of the IFQ head, consecutive
	// sessions extend one continuous p-thread execution and the register
	// state carries over without a new live-in copy; once main-thread
	// decode overruns it (or a flush destroys the IFQ), the p-thread
	// state is stale and the next trigger re-copies live-ins.
	pScanPos    uint64
	pStateValid bool
	leafPLoad   []bool              // loads whose value no p-thread consumes
	allLiveIns  []isa.Reg           // union of every p-thread's live-ins
	pregs       [isa.NumRegs]uint64 // p-thread register file (bit patterns)
	pscratch    map[uint32]byte     // p-thread store buffer

	// Fault containment: per-d-load confidence/backoff state.
	health map[int]*ptHealth

	// Telemetry (see trace.go and metrics.go). rec is nil when
	// Config.Events is not set; sessID numbers pre-execution sessions for
	// the event stream.
	rec    *obs.Recorder
	sessID uint64
	mtr    mtrState

	// Host-time stage attribution (see timing.go); tmr.on mirrors
	// Config.Perf != nil.
	tmr stageTiming
}

// Run simulates the program to completion under cfg and returns statistics.
// The program's architectural behaviour is defined by the functional
// emulator; Run reports an error if the pipeline fails to retire exactly
// the instructions the emulator retires.
func Run(p *prog.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), p, cfg)
}

// RunContext is Run with cooperative cancellation: the context is polled
// inside the cycle loop (every 64K cycles), so cancellation preempts even
// a runaway simulation within a bounded cycle count. The returned error
// wraps both ErrInterrupted and the context's error, so errors.Is
// matches either.
func RunContext(ctx context.Context, p *prog.Program, cfg Config) (*Result, error) {
	wallStart := perf.Now()
	s, err := newSim(p, cfg)
	if err != nil {
		return nil, err
	}
	s.ctx = ctx
	loopStart := perf.Now()
	s.tmr.winStart = loopStart
	err = s.runLoop()
	loopEnd := perf.Now()
	loopNanos := uint64(loopEnd - loopStart)
	if s.tmr.on {
		s.flushStageNanos(loopEnd) // final partial stage window
	}
	// Deliver buffered telemetry even when the run aborted: a partial
	// event stream is exactly what a deadlock diagnosis needs.
	s.rec.Flush()
	if err != nil {
		return nil, err
	}
	res, err := s.finish()
	if err != nil {
		return nil, err
	}
	if res.Timing != nil {
		res.Timing.LoopNanos = loopNanos
		res.Timing.WallNanos = uint64(perf.Now() - wallStart)
		reg := cfg.Perf
		reg.Counter("cpu.run.count").Add(1)
		reg.Counter("cpu.run.ns").Add(res.Timing.WallNanos)
		reg.Counter("cpu.run.loop.ns").Add(res.Timing.LoopNanos)
		reg.Counter("cpu.cycles").Add(res.Cycles)
		reg.Counter("cpu.cycles.skipped").Add(s.skipped)
		reg.Counter("cpu.instrs").Add(res.MainCommitted)
	}
	return res, nil
}

// newSim validates the configuration and program and builds the machine.
func newSim(p *prog.Program, cfg Config) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	s := &sim{
		cfg:    cfg,
		prog:   p,
		oracle: emu.New(p),
		hier:   mem.NewTimedHierarchy(cfg.Hierarchy),
		pred:   bpred.New(cfg.Predictor),
	}
	s.res.Config = cfg.Name
	s.ifq = make([]ifqEntry, ringLen(cfg.IFQSize))
	s.ifqMask = uint64(len(s.ifq) - 1)
	s.ruu[tidMain] = newRUU(cfg.RUUSize)
	s.ruu[tidP] = newRUU(cfg.PRUUSize)
	s.lsq[tidMain] = newLSQ(cfg.LSQSize)
	s.lsq[tidP] = newLSQ(cfg.LSQSize)
	s.shadow[isa.RegSP] = uint64(emu.StackTop)

	// Event ring sized to the longest possible completion latency.
	maxLat := cfg.Hierarchy.L1D.HitLatency + cfg.Hierarchy.L2.HitLatency + cfg.Hierarchy.MemLatency + 64
	s.evq = make([][]ref, ringLen(maxLat))
	s.evqMask = uint64(len(s.evq) - 1)

	// Load the P-thread Table.
	s.marked = make([]bool, len(p.Text))
	s.ptFor = make([]*prog.PThread, len(p.Text))
	s.leafPLoad = make([]bool, len(p.Text))
	if cfg.SPEAR {
		s.health = map[int]*ptHealth{}
		s.pscratch = map[uint32]byte{}
		liveSet := map[isa.Reg]bool{}
		for i := range p.PThreads {
			pt := &p.PThreads[i]
			s.ptFor[pt.DLoad] = pt
			for _, m := range pt.Members {
				s.marked[m] = true
			}
			for _, r := range pt.LiveIns {
				if !liveSet[r] {
					liveSet[r] = true
					s.allLiveIns = append(s.allLiveIns, r)
				}
			}
		}
		// A marked load is a "leaf" when no marked instruction reads its
		// destination: its value never feeds another p-thread address, so
		// its prefetch can be fire-and-forget. Loads on address chains
		// (pointer chases) are not leaves and keep their full latency in
		// the p-thread context.
		sourced := map[isa.Reg]bool{}
		var srcs [4]isa.Reg
		for pc, m := range s.marked {
			if m {
				for _, r := range p.Text[pc].Sources(srcs[:0]) {
					sourced[r] = true
				}
			}
		}
		for pc, m := range s.marked {
			if m && p.Text[pc].Op.IsLoad() {
				if rd, ok := p.Text[pc].Dest(); ok && !sourced[rd] {
					s.leafPLoad[pc] = true
				}
			}
		}
	}

	if cfg.StridePrefetch {
		s.stride = newStridePrefetcher(256, cfg.StrideDegree)
	}

	s.rec = obs.NewRecorder(cfg.Events, cfg.EventCycles)

	if cfg.Perf != nil {
		s.tmr.init(cfg.Perf)
	}

	s.skip = skipDeadCycles
	s.oracle.Hook = func(ev *emu.Event) { s.lastEv = ev }
	return s, nil
}

// windowMask sets the run loop's 64K-cycle window: on every cycle with
// cycle&windowMask == 0 the loop polls its context and, with stage
// timing on, publishes the window's stage nanos.
const windowMask = 0xFFFF

// runLoop steps the machine to completion, jumping over idle cycles
// (skip.go), and aborts on MaxCycles (with a diagnostic dump) or on
// context cancellation.
func (s *sim) runLoop() error {
	for !s.done() {
		if s.cycle >= s.cfg.MaxCycles {
			return &DeadlockError{
				Cycle:     s.cycle,
				Committed: s.res.MainCommitted,
				Retired:   s.oracle.Count,
				Dump:      s.dumpState(),
			}
		}
		if s.cycle&windowMask == 0 {
			if s.tmr.on && s.cycle > 0 {
				s.flushStageNanos(perf.Now())
			}
			if s.ctx != nil {
				if cerr := s.ctx.Err(); cerr != nil {
					return fmt.Errorf("%w: %w at cycle %d (%d/%d instructions committed)",
						ErrInterrupted, cerr, s.cycle, s.res.MainCommitted, s.oracle.Count)
				}
			}
		}
		if s.skip && s.quiet() && s.idle() {
			s.skipIdle()
			continue
		}
		s.tmr.sampleCycle(s.cycle)
		s.stepCycle()
	}
	return nil
}

// finish cross-checks the pipeline against the oracle and assembles the
// result.
func (s *sim) finish() (*Result, error) {
	if s.res.MainCommitted != s.oracle.Count {
		return nil, fmt.Errorf("%w: committed %d instructions but the oracle retired %d",
			ErrDivergence, s.res.MainCommitted, s.oracle.Count)
	}
	s.res.Cycles = s.cycle
	if s.cycle > 0 {
		s.res.AvgIFQOccupancy = float64(s.occAccum) / float64(s.cycle)
	}
	s.res.L1D = s.hier.L1D.Stats
	s.res.L2 = s.hier.L2.Stats
	s.res.Prefetch = s.hier.FinalizePrefetch()
	if s.cfg.MetricsInterval != 0 {
		s.sampleInterval() // final partial interval (no-op when empty)
	}
	if s.tmr.on {
		s.res.Timing = s.timingResult()
	}
	s.res.FinalStateHash = s.oracle.StateHash()
	s.res.finalize()
	if err := s.rec.Err(); err != nil {
		return nil, fmt.Errorf("cpu: telemetry write failed: %w", err)
	}
	return &s.res, nil
}

func (s *sim) done() bool {
	return s.mainHalted && s.ruu[tidMain].empty()
}

// stepCycle advances one cycle, processing stages back to front so that a
// result produced this cycle is visible to younger stages next cycle.
// Each lap charges the host time since the previous one to the stage
// that just ran (timing.go).
func (s *sim) stepCycle() {
	s.beginCycle()
	s.lap(stgBook)
	s.commitStage()
	s.lap(stgCommit)
	s.completeStage()
	s.lap(stgComplete)
	s.issueStage()
	s.lap(stgIssue)
	extracted := s.extractStage()
	s.lap(stgExtract)
	s.dispatchStage(extracted)
	s.lap(stgDispatch)
	s.triggerStage()
	s.lap(stgTrigger)
	s.fetchStage()
	s.lap(stgFetch)
	s.endCycle()
	s.lap(stgBook)
}

// beginCycle resets per-cycle structural resources and accumulates
// occupancy statistics.
func (s *sim) beginCycle() {
	s.memPortsUsed = 0
	for t := range s.fuUsed {
		for c := range s.fuUsed[t] {
			s.fuUsed[t][c] = 0
		}
	}

	s.occAccum += uint64(s.ifqCount())
	if s.cfg.MetricsInterval != 0 {
		s.mtr.ruuOcc += uint64(s.ruu[tidMain].count() + s.ruu[tidP].count())
		if s.mode == modeActive {
			s.mtr.active++
		}
	}
}

// endCycle folds next-cycle wakeups into the ready lists, advances the
// clock, and samples interval metrics on interval boundaries.
func (s *sim) endCycle() {
	for t := 0; t < 2; t++ {
		s.ready[t] = append(s.ready[t], s.readyNext[t]...)
		s.readyNext[t] = s.readyNext[t][:0]
	}
	s.cycle++
	if iv := s.cfg.MetricsInterval; iv != 0 && s.cycle-s.mtr.cycle >= iv {
		s.sampleInterval()
	}
}

// ---------------------------------------------------------------- commit

func (s *sim) commitStage() {
	// Main thread commits in order, up to CommitWidth.
	q := &s.ruu[tidMain]
	for n := 0; n < s.cfg.CommitWidth && !q.empty(); n++ {
		e := q.at(q.head)
		if !e.valid || e.state != stDone {
			break
		}
		if e.isStore && !e.bogus {
			if s.memPortsUsed >= s.cfg.MemPorts {
				break // structural stall on the cache write port
			}
			s.memPortsUsed++
			s.hier.AccessAt(e.addr, true, tidMain, s.cycle)
		}
		if e.isCond {
			s.res.CondBranches++
			if e.predTaken == e.actualTaken {
				s.res.BranchHits++
			} else {
				s.res.Mispredicts++
			}
		}
		if e.isHalt {
			s.mainHalted = true
		}
		if e.hasLSQ {
			s.lsq[tidMain].head++
		}
		s.traceCommit(tidMain, e)
		e.valid = false
		q.head++
		s.res.MainCommitted++
	}

	// P-thread context drains in order; its stores never touch memory.
	pq := &s.ruu[tidP]
	for n := 0; n < s.cfg.CommitWidth && !pq.empty(); n++ {
		e := pq.at(pq.head)
		if !e.valid || e.state != stDone {
			break
		}
		if e.hasLSQ {
			s.lsq[tidP].head++
		}
		e.valid = false
		pq.head++
		s.res.PCommitted++
	}
}

// ---------------------------------------------------------------- complete

func (s *sim) completeStage() {
	// The drained bucket keeps its storage for a later cycle's events.
	// That is safe while the loop below reads it: completion and recovery
	// never append to the wheel, and issue, which does, runs after this.
	bucket := &s.evq[s.cycle&s.evqMask]
	events := *bucket
	*bucket = events[:0]
	for _, r := range events {
		e := s.ruu[r.tid].get(r)
		if e == nil || e.state != stIssued {
			continue
		}
		e.state = stDone
		for _, c := range e.consumers {
			ce := s.ruu[c.tid].get(c)
			if ce == nil || ce.state != stDispatched {
				continue
			}
			ce.waitCnt--
			if ce.waitCnt == 0 {
				ce.state = stReady
				s.ready[c.tid] = append(s.ready[c.tid], c)
			}
		}
		e.consumers = e.consumers[:0]
		if e.mispredict {
			s.recover(e.seq)
		}
	}
}

// recover squashes everything younger than the resolved mispredicted
// control transfer and redirects fetch to the oracle's path.
func (s *sim) recover(branchSeq uint64) {
	// Flush the IFQ: everything in it is younger than the branch.
	s.ifqHead = s.ifqTail
	// Squash younger main-thread entries (they are all wrong-path).
	q := &s.ruu[tidMain]
	squashed := 0
	for q.tail > q.head {
		e := q.at(q.tail - 1)
		if !e.valid || e.seq <= branchSeq {
			break
		}
		if e.hasLSQ {
			s.lsq[tidMain].tail--
		}
		e.valid = false
		q.tail--
		squashed++
	}
	s.traceSquash(squashed)
	// The IFQ flush destroys the p-thread's *source*: an armed or
	// extracting session loses the entries it would have consumed and
	// dies. Already-extracted instructions live in the p-thread's own
	// SMT context, which a main-thread recovery does not flush — they
	// keep draining (some may be wrong-path prefetches; that pollution
	// is exactly why low branch hit ratios hurt SPEAR).
	if s.mode != modeNormal {
		s.killSession()
	}
	s.wrongPath = false
	s.wrongPC = -1
	if resume := s.cycle + uint64(s.cfg.MispredictPenalty); resume > s.fetchResumeAt {
		s.fetchResumeAt = resume
	}
	s.traceFlush(branchSeq)
}

// ---------------------------------------------------------------- issue

// takeFU reserves a functional unit of the given class for thread tid this
// cycle; memory ports are always shared between contexts.
func (s *sim) takeFU(tid int, class isa.Class) bool {
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		if s.memPortsUsed >= s.cfg.MemPorts {
			return false
		}
		s.memPortsUsed++
		return true
	}
	pool := 0
	if s.cfg.SeparateFUs {
		pool = tid
	}
	var limit int
	switch class {
	case isa.ClassIntALU:
		limit = s.cfg.IntALU
	case isa.ClassIntMulDiv:
		limit = s.cfg.IntMulDiv
	case isa.ClassFPALU:
		limit = s.cfg.FPALU
	case isa.ClassFPMulDiv:
		limit = s.cfg.FPMulDiv
	default:
		// Branches, nops, halt: treat as int ALU ops.
		class = isa.ClassIntALU
		limit = s.cfg.IntALU
	}
	if s.fuUsed[pool][class] >= limit {
		return false
	}
	s.fuUsed[pool][class]++
	return true
}

func (s *sim) issueStage() {
	budget := s.cfg.IssueWidth
	// P-thread instructions are given scheduling priority (Section 3.3)
	// unless the ablation knob turns it off.
	order := [2]int{tidP, tidMain}
	if !s.cfg.PThreadPriority {
		order = [2]int{tidMain, tidP}
	}
	for _, tid := range order {
		pending := s.ready[tid]
		s.ready[tid] = s.ready[tid][:0]
		for i, r := range pending {
			if budget == 0 {
				s.ready[tid] = append(s.ready[tid], pending[i:]...)
				break
			}
			e := s.ruu[r.tid].get(r)
			if e == nil || e.state != stReady {
				continue
			}
			if e.isLoad && tid == tidMain && !e.bogus && s.loadBlocked(e) {
				s.ready[tid] = append(s.ready[tid], r)
				continue
			}
			if !s.takeFU(tid, e.in.Op.Class()) {
				s.ready[tid] = append(s.ready[tid], r)
				continue
			}
			budget--
			lat := s.execLatency(e, tid)
			e.state = stIssued
			s.traceIssue(tid, e, lat)
			done := s.cycle + uint64(lat)
			s.evq[done&s.evqMask] = append(s.evq[done&s.evqMask], r)
		}
	}
}

// loadBlocked applies conservative memory disambiguation: a main-thread
// load waits until every older store in its LSQ has a known address.
func (s *sim) loadBlocked(e *ruuEntry) bool {
	q := &s.lsq[tidMain]
	for pos := e.lsqPos; pos > q.head; pos-- {
		se := q.at(pos - 1)
		if !se.valid || !se.isStore {
			continue
		}
		if !se.addrKnown {
			return true
		}
	}
	return false
}

// forwarded reports whether an older store to the same dword can forward.
func (s *sim) forwarded(e *ruuEntry) bool {
	q := &s.lsq[tidMain]
	for pos := e.lsqPos; pos > q.head; pos-- {
		se := q.at(pos - 1)
		if se.valid && se.isStore && se.addrKnown && se.addr&^7 == e.addr&^7 {
			return true
		}
	}
	return false
}

// execLatency computes the execution latency and performs the timing-model
// cache access for loads.
func (s *sim) execLatency(e *ruuEntry, tid int) int {
	op := e.in.Op
	switch {
	case e.isLoad && e.bogus:
		return 2 // wrong-path load: address unknown, charge a short latency
	case e.isLoad && tid == tidMain:
		if s.forwarded(e) {
			return 1
		}
		lat := s.hier.AccessAt(e.addr, false, tidMain, s.cycle).Latency
		if s.stride != nil {
			// The prefetcher observes demand accesses and fills the
			// shared hierarchy; its traffic is charged to the helper
			// slot of the cache statistics, like the p-thread's.
			for _, pa := range s.stride.observe(e.pc, e.addr) {
				s.hier.AccessAtPC(pa, false, tidP, s.cycle, e.pc)
				s.res.StridePrefetches++
			}
		}
		return lat
	case e.isLoad && tid == tidP:
		s.res.PrefetchLoads++
		lat := s.hier.AccessAtPC(e.addr, false, tidP, s.cycle, e.pc).Latency
		if s.leafPLoad[e.pc] {
			// Fire-and-forget: nothing in any p-thread consumes this
			// load's value, so the context entry retires as soon as the
			// prefetch is launched; the fill completes in the memory
			// system on its own.
			return 2
		}
		return lat
	case e.isStore:
		// Address generation; the cache write happens at commit.
		if le := s.lsq[tid].at(e.lsqPos); le.valid && le.seq == e.seq {
			le.addrKnown = true
		}
		return 1
	default:
		return op.Latency()
	}
}

// ---------------------------------------------------------------- dispatch

// dispatchStage decodes main-thread instructions from the IFQ head into the
// RUU, using whatever decode bandwidth the PE left this cycle.
func (s *sim) dispatchStage(extracted int) {
	width := s.cfg.DecodeWidth - extracted
	for n := 0; n < width && s.ifqHead < s.ifqTail; n++ {
		fe := &s.ifq[s.ifqHead&s.ifqMask]
		q := &s.ruu[tidMain]
		if q.full() {
			return
		}
		needLSQ := fe.in.Op.IsMem()
		if needLSQ && s.lsq[tidMain].full() {
			return
		}
		pos, e := q.push()
		e.valid = true
		e.seq = fe.seq
		e.pc = fe.pc
		e.in = fe.in
		e.bogus = fe.bogus
		e.isCond = fe.isCond
		e.predTaken = fe.predTaken
		e.actualTaken = fe.taken
		e.mispredict = fe.mispredict
		e.isHalt = fe.in.Op == isa.HALT && !fe.bogus
		e.isLoad = fe.in.Op.IsLoad()
		e.isStore = fe.in.Op.IsStore()
		e.addr = fe.addr
		e.hasDest = fe.hasDest
		e.destReg = fe.destReg
		e.destVal = fe.destVal
		if e.bogus && e.in.Op.IsMem() {
			// Wrong-path addresses are unknown; use a unique dword so
			// they never alias with real disambiguation.
			e.addr = 0xF000_0000 | uint32(pos<<3)
		}
		if e.hasDest && !e.bogus {
			// Advance the dispatch-time shadow state (IFQ-head values).
			s.shadow[e.destReg] = e.destVal
		}
		if needLSQ {
			lq := &s.lsq[tidMain]
			lpos := lq.tail
			lq.tail++
			// Store addresses are produced by a dedicated address
			// generation port at dispatch (they rarely depend on
			// long-latency values), so loads are not serialized behind
			// value-dependent stores.
			*lq.at(lpos) = lsqEntry{
				valid:     true,
				seq:       e.seq,
				ruuPos:    pos,
				isStore:   e.isStore,
				addr:      e.addr,
				addrKnown: true,
			}
			e.lsqPos = lpos
			e.hasLSQ = true
		}
		s.wireSources(tidMain, pos, e)
		s.traceDispatch(tidMain, e)
		s.ifqHead++
	}
}

// wireSources links the entry to in-flight producers via the create vector
// and publishes its own destination.
func (s *sim) wireSources(tid int, pos uint64, e *ruuEntry) {
	var srcs [4]isa.Reg
	for _, r := range e.in.Sources(srcs[:0]) {
		if !s.createOk[tid][r] {
			continue
		}
		pr := s.createVec[tid][r]
		pe := s.ruu[tid].get(pr)
		if pe == nil || pe.state == stDone {
			continue
		}
		pe.consumers = append(pe.consumers, ref{tid: tid, pos: pos, seq: e.seq})
		e.waitCnt++
	}
	if rd, ok := e.in.Dest(); ok {
		s.createVec[tid][rd] = ref{tid: tid, pos: pos, seq: e.seq}
		s.createOk[tid][rd] = true
	}
	if e.waitCnt == 0 {
		e.state = stReady
		s.readyNext[tid] = append(s.readyNext[tid], ref{tid: tid, pos: pos, seq: e.seq})
	}
}

// ---------------------------------------------------------------- fetch

func (s *sim) ifqCount() int { return int(s.ifqTail - s.ifqHead) }

func (s *sim) fetchStage() {
	if s.cycle < s.fetchResumeAt {
		return
	}
	for n := 0; n < s.cfg.FetchWidth && s.ifqCount() < s.cfg.IFQSize; n++ {
		if s.wrongPath {
			if !s.fetchWrongPath() {
				return
			}
			continue
		}
		if s.oracle.Halted {
			return
		}
		if err := s.oracle.Step(); err != nil {
			// The program validated, so this is unreachable in practice;
			// stop fetching and let the pipeline drain.
			return
		}
		s.fetchOnTrace()
	}
}

// fetchOnTrace turns the oracle's last event into an IFQ entry, consulting
// the predictor to decide whether fetch diverges onto the wrong path.
func (s *sim) fetchOnTrace() {
	ev := s.lastEv
	fe := s.ifqSlot()
	fe.seq = s.fetchSeq
	fe.pc = ev.PC
	fe.in = ev.Instr
	fe.taken = ev.Taken
	fe.isMem = ev.IsMem
	fe.addr = ev.Addr
	fe.hasDest = ev.HasDest
	fe.destReg = ev.DestReg
	fe.destVal = ev.DestVal
	s.fetchSeq++
	op := ev.Instr.Op
	switch {
	case op.IsBranch():
		fe.isCond = true
		fe.predTaken = s.pred.PredictBranch(ev.PC)
		s.pred.Update(ev.PC, ev.Taken, fe.predTaken)
		if fe.predTaken != ev.Taken {
			fe.mispredict = true
			s.wrongPath = true
			if fe.predTaken {
				s.wrongPC = int(ev.Instr.Imm)
			} else {
				s.wrongPC = ev.PC + 1
			}
		}
	case op == isa.JAL:
		s.pred.PushRAS(ev.PC + 1)
	case op == isa.JR:
		tgt, ok := s.pred.PopRAS()
		if !ok || tgt != ev.NextPC {
			fe.mispredict = true
			s.wrongPath = true
			s.wrongPC = -1
			if ok {
				s.wrongPC = tgt
			}
		}
	case op == isa.JALR:
		tgt, ok := s.pred.PredictIndirect(ev.PC)
		s.pred.PushRAS(ev.PC + 1)
		s.pred.UpdateIndirect(ev.PC, ev.NextPC)
		if !ok || tgt != ev.NextPC {
			fe.mispredict = true
			s.wrongPath = true
			s.wrongPC = -1
			if ok {
				s.wrongPC = tgt
			}
		}
	}
	s.preDecode(fe)
	s.pushIFQ(fe)
}

// fetchWrongPath fetches one instruction along the predicted-but-wrong
// path. It reports false when fetch must stall (unknown target).
func (s *sim) fetchWrongPath() bool {
	if s.wrongPC < 0 || s.wrongPC >= len(s.prog.Text) {
		return false
	}
	in := s.prog.Text[s.wrongPC]
	fe := s.ifqSlot()
	fe.seq = s.fetchSeq
	fe.pc = s.wrongPC
	fe.in = in
	fe.bogus = true
	s.fetchSeq++
	switch {
	case in.Op.IsBranch():
		if s.pred.PredictBranch(s.wrongPC) {
			s.wrongPC = int(in.Imm)
		} else {
			s.wrongPC++
		}
	case in.Op == isa.J || in.Op == isa.JAL:
		s.wrongPC = int(in.Imm)
	case in.Op == isa.JR || in.Op == isa.JALR:
		if tgt, ok := s.pred.PredictIndirect(s.wrongPC); ok {
			s.wrongPC = tgt
		} else {
			s.wrongPC = -1
		}
	case in.Op == isa.HALT:
		s.wrongPC = -1
	default:
		s.wrongPC++
	}
	s.preDecode(fe)
	s.pushIFQ(fe)
	return true
}

// ifqSlot returns the IFQ's tail slot cleared, for fetch to fill in place
// (a struct literal assigned through a pointer is built on the stack and
// copied) before pushIFQ enqueues it.
func (s *sim) ifqSlot() *ifqEntry {
	fe := &s.ifq[s.ifqTail&s.ifqMask]
	*fe = ifqEntry{}
	return fe
}

// pushIFQ enqueues fe, the tail slot that ifqSlot returned.
func (s *sim) pushIFQ(fe *ifqEntry) {
	s.traceFetch(fe)
	s.ifqTail++
}
