package cpu

// Dead-cycle skipping. On most simulated cycles of a memory-bound run no
// stage can act: every in-flight instruction waits on a miss, the window
// is full or fetch is stalled. runLoop tests for such a cycle before
// stepping it and, when the test holds, jumps the clock to the next cycle
// at which something can change. A skipped span leaves every simulated
// result exactly as stepping it would: the per-cycle accumulators advance
// by the span's length, and the jump never crosses a completion event, a
// fetch resume, a context poll, an interval sample, a session budget or
// MaxCycles.

// skipDeadCycles turns skipping on for every sim built after it is set.
// Only tests change it, to prove that skipping perturbs nothing.
var skipDeadCycles = true

// quiet is the idle test's cheap first half, kept small so that it
// inlines into runLoop: nothing is ready to issue and nothing completes
// this cycle. It rejects most live cycles.
func (s *sim) quiet() bool {
	return len(s.ready[tidMain])|len(s.ready[tidP])|len(s.evq[s.cycle&s.evqMask]) == 0
}

// idle reports whether stepping the current cycle would change nothing
// but the clock and the per-cycle accumulators, given quiet. Ready lists
// are complete at the top of a cycle (endCycle folded readyNext in), so
// with them and the current wheel bucket empty, issue and complete are
// no-ops; the remaining stages are tested one by one.
func (s *sim) idle() bool {
	// Commit: the oldest entry of either context has not completed.
	for t := range s.ruu {
		if q := &s.ruu[t]; !q.empty() {
			if e := q.at(q.head); e.valid && e.state == stDone {
				return false
			}
		}
	}
	// Dispatch: the IFQ head cannot enter the RUU.
	if s.ifqHead < s.ifqTail && !s.ruu[tidMain].full() &&
		!(s.ifq[s.ifqHead&s.ifqMask].in.Op.IsMem() && s.lsq[tidMain].full()) {
		return false
	}
	// Fetch: stalled, the IFQ is full, or there is nothing to fetch.
	if s.cycle >= s.fetchResumeAt && s.ifqCount() < s.cfg.IFQSize {
		if s.wrongPath {
			if s.wrongPC >= 0 && s.wrongPC < len(s.prog.Text) {
				return false
			}
		} else if !s.oracle.Halted {
			return false
		}
	}
	return s.peIdle()
}

// peIdle reports whether the trigger state machine and the PE would leave
// the machine unchanged this cycle.
func (s *sim) peIdle() bool {
	switch s.mode {
	case modeNormal:
		return true
	case modeDrain:
		// Past the decode-latch drain the trigger only waits for live-in
		// producers, which finish through the wheel. Its snapshot refresh
		// re-latches what the previous cycle latched: the shadow state
		// and the producers change only at dispatch and completion. The
		// producers were filtered to unfinished ones when latched, so a
		// non-empty list means the wait goes on.
		return s.sess.drainLeft <= 0 && len(s.sess.producers) > 0
	case modeActive:
		if b := s.cfg.PSessionCycleBudget; b > 0 && s.cycle-s.sess.startCycle > b {
			return false
		}
		// The first extract cycle of a re-aligned session publishes the
		// p-thread head; the deadlock dump prints it.
		if s.sess.scanPos < s.ifqHead || s.pScanPos != s.sess.scanPos {
			return false
		}
		if s.sess.scanPos >= s.ifqTail {
			// Ran dry, but the queue is deep enough to stay armed.
			return s.ifqCount() >= s.triggerOccupancy()
		}
		fe := &s.ifq[s.sess.scanPos&s.ifqMask]
		if !fe.marked || fe.extracted {
			return false
		}
		if b := s.cfg.PSessionBudget; b > 0 && s.sess.extracted >= b {
			return false
		}
		// Stalled on a structural hazard of the p-thread context.
		if s.ruu[tidP].full() {
			return true
		}
		in := fe.in
		if ov, ok := s.cfg.PTextOverride[fe.pc]; ok {
			in = ov
		}
		return in.Op.IsMem() && s.lsq[tidP].full()
	}
	return false // modeCopy copies one live-in per cycle
}

// skipIdle jumps from an idle cycle to the earliest cycle at which a
// stage can act or the loop has bookkeeping due, and charges the cycles
// in between as stepping them would.
func (s *sim) skipIdle() {
	c := s.cycle
	to := min((c|windowMask)+1, s.cfg.MaxCycles)
	if c < s.fetchResumeAt {
		to = min(to, s.fetchResumeAt)
	}
	if iv := s.cfg.MetricsInterval; iv != 0 {
		to = min(to, s.mtr.cycle+iv)
	}
	if b := s.cfg.PSessionCycleBudget; b > 0 && s.mode == modeActive {
		to = min(to, s.sess.startCycle+b+1)
	}
	// The bucket of cycle c is empty, so every pending event lies within
	// one turn of the wheel after c.
	for d := uint64(1); d <= s.evqMask && c+d < to; d++ {
		if len(s.evq[(c+d)&s.evqMask]) != 0 {
			to = c + d
			break
		}
	}

	k := to - c
	s.occAccum += k * uint64(s.ifqCount())
	if s.cfg.MetricsInterval != 0 {
		s.mtr.ruuOcc += k * uint64(s.ruu[tidMain].count()+s.ruu[tidP].count())
		if s.mode == modeActive {
			s.mtr.active += k
		}
	}
	if s.mode == modeDrain {
		s.sess.drainLeft -= int(k)
	}
	s.skipped += k
	s.cycle = to
	if iv := s.cfg.MetricsInterval; iv != 0 && s.cycle-s.mtr.cycle >= iv {
		s.sampleInterval()
	}
}
