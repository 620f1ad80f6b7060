package cpu

import (
	"fmt"

	"spear/internal/obs"
)

// Telemetry emission: the simulator reports pipeline activity as typed
// obs.Events through one recorder over Config.Events, bounded to the
// first Config.EventCycles cycles (0 = the whole run). spearsim -events
// gives it a JSONL writer, spearsim -trace a human-readable text writer.
//
// Every emit helper is guarded by obsOn(), a nil-safe check that makes
// the disabled path a single comparison with zero allocations (asserted
// by TestTelemetryDisabledPathDoesNotAllocate).

// obsOn reports whether any telemetry sink wants events this cycle.
func (s *sim) obsOn() bool { return s.rec.Active(s.cycle) }

// emit stamps the current cycle onto ev and hands it to the recorder.
// Callers must have checked obsOn.
func (s *sim) emit(ev obs.Event) {
	ev.Cycle = s.cycle
	s.rec.Emit(ev)
}

// memAddr returns the entry's memory operand address, 0 for non-memory
// instructions (the event schema reserves Addr for real addresses).
func memAddr(e *ruuEntry) uint32 {
	if e.isLoad || e.isStore {
		return e.addr
	}
	return 0
}

func (s *sim) traceFetch(fe *ifqEntry) {
	if !s.obsOn() {
		return
	}
	var flags uint8
	if fe.bogus {
		flags |= obs.FlagWrongPath
	}
	if fe.marked {
		flags |= obs.FlagMarked
	}
	var addr uint32
	if fe.isMem {
		addr = fe.addr
	}
	s.emit(obs.Event{
		Kind: obs.KindFetch, Tid: tidMain,
		PC: int32(fe.pc), Seq: fe.seq, Addr: addr, Flags: flags,
		Text: fe.in.String(),
	})
}

func (s *sim) traceDispatch(tid int, e *ruuEntry) {
	if !s.obsOn() {
		return
	}
	k := obs.KindDispatch
	if tid == tidP {
		k = obs.KindExtract
	}
	s.emit(obs.Event{
		Kind: k, Tid: uint8(tid),
		PC: int32(e.pc), Seq: e.seq, Addr: memAddr(e),
		Text: e.in.String(),
	})
}

func (s *sim) traceIssue(tid int, e *ruuEntry, lat int) {
	if !s.obsOn() {
		return
	}
	s.emit(obs.Event{
		Kind: obs.KindIssue, Tid: uint8(tid),
		PC: int32(e.pc), Seq: e.seq, Addr: memAddr(e), Arg: uint64(lat),
		Text: e.in.String(),
	})
}

func (s *sim) traceCommit(tid int, e *ruuEntry) {
	if !s.obsOn() {
		return
	}
	s.emit(obs.Event{
		Kind: obs.KindCommit, Tid: uint8(tid),
		PC: int32(e.pc), Seq: e.seq, Addr: memAddr(e),
		Text: e.in.String(),
	})
}

func (s *sim) traceTrigger(action string) {
	if !s.obsOn() {
		return
	}
	s.emit(obs.Event{
		Kind: obs.KindTrigger, Tid: tidP, Arg: s.sessID,
		Text: fmt.Sprintf("%s (occupancy %d, p-head %d)", action, s.ifqCount(), s.pScanPos),
	})
}

func (s *sim) traceFlush(branchSeq uint64) {
	if !s.obsOn() {
		return
	}
	s.emit(obs.Event{Kind: obs.KindFlush, Tid: tidMain, Arg: branchSeq})
}

func (s *sim) traceSquash(entries int) {
	if !s.obsOn() || entries == 0 {
		return
	}
	s.emit(obs.Event{Kind: obs.KindSquash, Tid: tidMain, Arg: uint64(entries)})
}

func (s *sim) traceFault(kind PFaultKind) {
	if !s.obsOn() {
		return
	}
	var dload int
	if s.sess.pt != nil {
		dload = s.sess.pt.DLoad
	}
	s.emit(obs.Event{
		Kind: obs.KindFault, Tid: tidP,
		PC: int32(dload), Arg: uint64(kind),
		Text: kind.String(),
	})
}

// traceSession emits a session-begin or session-end event for the current
// session; text is the begin mode ("re-align", "continuation") or the end
// reason ("done", "killed", "stale", "fault:<kind>").
func (s *sim) traceSession(kind obs.Kind, text string) {
	if !s.obsOn() {
		return
	}
	var dload int
	if s.sess.pt != nil {
		dload = s.sess.pt.DLoad
	}
	s.emit(obs.Event{
		Kind: kind, Tid: tidP,
		PC: int32(dload), Arg: s.sessID,
		Text: text,
	})
}
