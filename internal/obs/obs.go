// Package obs is the simulator's structured telemetry layer: typed
// pipeline events, a ring-buffered recorder that costs nothing when
// disabled, and pluggable writers (JSONL for tooling, a compact binary
// format for high-volume captures, human-readable text for -trace).
//
// The cycle core emits one Event per interesting micro-architectural
// occurrence — fetch, dispatch, p-thread extraction, trigger transitions,
// issue, commit, flush, squash, contained faults, and pre-execution
// session begin/end. Events are fixed-shape values; the recorder batches
// them in a reusable ring and fans each flush out to its writers, so the
// enabled path allocates only inside the writers and the disabled path is
// a single nil check at every call site.
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

// KindSpan is a wall-clock timing rollup from the perf layer: Text names
// the span (e.g. a pipeline stage bucket), Arg carries the accumulated
// host nanoseconds for the reporting window. Emitted at each
// per-64K-cycle stage flush and once at end of run. Values 12-15 belonged
// to retired storage-health kinds; KindSpan keeps 16 so existing binary
// captures still decode.
const KindSpan Kind = 16

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
	KindSpan:         "span",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind inverts Kind.String; ok is false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
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

// Writer consumes batches of events in nondecreasing cycle order.
type Writer interface {
	WriteEvents([]Event) error
	Close() error
}

type sink struct {
	w      Writer
	cycles uint64 // only events with Cycle < cycles are delivered; 0 = all
	broken bool   // a write failed; the sink is dropped from further flushes
}

// Recorder buffers events and fans them out to its writers. A nil
// *Recorder is a valid, permanently inactive recorder.
type Recorder struct {
	sinks []sink
	buf   []Event

	unlimited bool   // some sink has no cycle limit
	maxCycles uint64 // max over limited sinks
	err       error  // first writer error
}

// ringCap is the recorder's batch size; flushes happen when it fills.
const ringCap = 1024

// NewRecorder builds a recorder with no sinks; Attach adds them.
func NewRecorder() *Recorder {
	return &Recorder{buf: make([]Event, 0, ringCap)}
}

// Attach adds a writer that receives events for the first `cycles` cycles
// (0 = unlimited). It returns the recorder for chaining.
func (r *Recorder) Attach(w Writer, cycles uint64) *Recorder {
	r.sinks = append(r.sinks, sink{w: w, cycles: cycles})
	if cycles == 0 {
		r.unlimited = true
	} else if cycles > r.maxCycles {
		r.maxCycles = cycles
	}
	return r
}

// Active reports whether any sink still wants events at the given cycle.
// It is nil-safe and is the cheap guard call sites use before building an
// Event.
func (r *Recorder) Active(cycle uint64) bool {
	if r == nil || len(r.sinks) == 0 {
		return false
	}
	return r.unlimited || cycle < r.maxCycles
}

// Emit buffers one event, flushing when the ring fills. Callers must have
// checked Active; Emit does not re-check the cycle window (per-sink limits
// are applied at flush).
func (r *Recorder) Emit(ev Event) {
	r.buf = append(r.buf, ev)
	if len(r.buf) >= ringCap {
		r.Flush()
	}
}

// Flush delivers buffered events to every sink, applying per-sink cycle
// limits. Write errors disable the failing sink and are retained in Err.
func (r *Recorder) Flush() {
	if r == nil || len(r.buf) == 0 {
		return
	}
	for i := range r.sinks {
		s := &r.sinks[i]
		if s.broken {
			continue
		}
		evs := r.buf
		if s.cycles != 0 {
			// Events arrive in nondecreasing cycle order: cut the suffix
			// past this sink's window.
			n := len(evs)
			for n > 0 && evs[n-1].Cycle >= s.cycles {
				n--
			}
			evs = evs[:n]
		}
		if len(evs) == 0 {
			continue
		}
		if err := s.w.WriteEvents(evs); err != nil {
			s.broken = true
			if r.err == nil {
				r.err = err
			}
		}
	}
	r.buf = r.buf[:0]
}

// Close flushes and closes every sink.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.Flush()
	for i := range r.sinks {
		if err := r.sinks[i].w.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Err returns the first writer error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}
