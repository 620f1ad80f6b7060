// Package obs is the simulator's structured telemetry layer: typed
// pipeline events, a ring-buffered recorder that costs nothing when
// disabled, and interchangeable writers (JSONL for tooling with
// spearsim -events, human-readable text for spearsim -trace).
//
// The cycle core emits one Event per interesting micro-architectural
// occurrence — fetch, dispatch, p-thread extraction, trigger transitions,
// issue, commit, flush, squash, contained faults, and pre-execution
// session begin/end. Events are fixed-shape values; the recorder batches
// them in a reusable ring and hands each flush to its one writer, so the
// enabled path allocates only inside the writer and the disabled path is
// a single nil check at every call site. Kind values 12-16 are retired
// and must not be reused.
package obs

// Kind identifies the pipeline event type.
type Kind uint8

const (
	KindFetch Kind = 1 + iota
	KindDispatch
	KindExtract
	KindTrigger
	KindIssue
	KindCommit
	KindFlush
	KindSquash
	KindFault
	KindSessionBegin
	KindSessionEnd
)

var kindNames = [...]string{
	KindFetch:        "fetch",
	KindDispatch:     "dispatch",
	KindExtract:      "extract",
	KindTrigger:      "trigger",
	KindIssue:        "issue",
	KindCommit:       "commit",
	KindFlush:        "flush",
	KindSquash:       "squash",
	KindFault:        "fault",
	KindSessionBegin: "session-begin",
	KindSessionEnd:   "session-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event flag bits.
const (
	FlagWrongPath uint8 = 1 << iota // fetched along a mispredicted path
	FlagMarked                      // carries a p-thread indicator bit
)

// Event is one structured pipeline event. The meaning of Addr, Arg, and
// Text is kind-specific (see DESIGN.md §9 for the schema):
//
//	fetch/dispatch/extract/commit: PC/Seq identify the instruction, Addr
//	  its memory operand (0 if none), Text its disassembly.
//	issue: Arg is the execution latency charged at issue.
//	trigger: Arg is the session id, Text the transition note.
//	flush: Arg is the sequence of the resolving branch.
//	squash: Arg is the number of RUU entries squashed.
//	fault: Arg is the cpu.PFaultKind value, Text its name.
//	session-begin/session-end: Arg is the session id, PC the delinquent
//	  load, Text the begin mode ("re-align", "continuation") or end reason
//	  ("done", "killed", "stale", "fault:<kind>").
type Event struct {
	Cycle uint64
	Seq   uint64
	Arg   uint64
	Addr  uint32
	PC    int32
	Kind  Kind
	Tid   uint8
	Flags uint8
	Text  string
}

// Writer consumes batches of events in nondecreasing cycle order. Its
// owner, not the Recorder, flushes and closes what lies beneath it.
type Writer interface {
	WriteEvents([]Event) error
}

// Recorder buffers events for one writer, bounded to the events of the
// first cycles cycles. A nil *Recorder is a valid, permanently inactive
// recorder.
type Recorder struct {
	w      Writer
	cycles uint64 // only events with Cycle < cycles are recorded; 0 = all
	buf    []Event
	err    error // first writer error; nothing is written after it
}

// ringCap is the recorder's batch size; flushes happen when it fills.
const ringCap = 1024

// NewRecorder builds a recorder that delivers to w the events of the
// first cycles cycles (0 = the whole run). A nil w gives the nil,
// inactive recorder.
func NewRecorder(w Writer, cycles uint64) *Recorder {
	if w == nil {
		return nil
	}
	return &Recorder{w: w, cycles: cycles, buf: make([]Event, 0, ringCap)}
}

// Active reports whether the writer wants events at the given cycle. It
// is nil-safe and is the cheap guard call sites use before building an
// Event.
func (r *Recorder) Active(cycle uint64) bool {
	return r != nil && (r.cycles == 0 || cycle < r.cycles)
}

// Emit buffers one event, flushing when the ring fills. Callers must have
// checked Active at the event's cycle.
func (r *Recorder) Emit(ev Event) {
	r.buf = append(r.buf, ev)
	if len(r.buf) >= ringCap {
		r.Flush()
	}
}

// Flush delivers the buffered events to the writer. The first write
// error is retained in Err, and later flushes drop their events.
func (r *Recorder) Flush() {
	if r == nil || len(r.buf) == 0 {
		return
	}
	if r.err == nil {
		r.err = r.w.WriteEvents(r.buf)
	}
	r.buf = r.buf[:0]
}

// Err returns the first writer error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}
