package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonEvent is the stable JSONL wire form of an Event. Field order here is
// the field order on the wire; the golden tests lock it.
type jsonEvent struct {
	Cycle     uint64 `json:"cycle"`
	Kind      string `json:"kind"`
	Tid       uint8  `json:"tid"`
	PC        int32  `json:"pc"`
	Seq       uint64 `json:"seq"`
	Addr      uint32 `json:"addr,omitempty"`
	Arg       uint64 `json:"arg,omitempty"`
	WrongPath bool   `json:"wrongPath,omitempty"`
	Marked    bool   `json:"marked,omitempty"`
	Text      string `json:"text,omitempty"`
}

func toJSON(e Event) jsonEvent {
	return jsonEvent{
		Cycle:     e.Cycle,
		Kind:      e.Kind.String(),
		Tid:       e.Tid,
		PC:        e.PC,
		Seq:       e.Seq,
		Addr:      e.Addr,
		Arg:       e.Arg,
		WrongPath: e.Flags&FlagWrongPath != 0,
		Marked:    e.Flags&FlagMarked != 0,
		Text:      e.Text,
	}
}

// JSONLWriter emits one JSON object per line.
type JSONLWriter struct {
	bw *bufio.Writer
	c  io.Closer // closed by Close when the destination is a Closer
}

// NewJSONL wraps w in a line-oriented JSON event writer. If w is an
// io.Closer it is closed by Close.
func NewJSONL(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		jw.c = c
	}
	return jw
}

func (w *JSONLWriter) WriteEvents(evs []Event) error {
	for _, e := range evs {
		b, err := json.Marshal(toJSON(e))
		if err != nil {
			return err
		}
		if _, err := w.bw.Write(b); err != nil {
			return err
		}
		if err := w.bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

func (w *JSONLWriter) Close() error {
	err := w.bw.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// TextWriter renders events in the human pipeline-trace format that
// spearsim -trace prints (one line per event, cycle first).
type TextWriter struct {
	w io.Writer
}

// NewText wraps w in a human-readable trace writer.
func NewText(w io.Writer) *TextWriter { return &TextWriter{w: w} }

func tidName(tid uint8) string {
	if tid == 1 {
		return "p   "
	}
	return "main"
}

func (t *TextWriter) WriteEvents(evs []Event) error {
	for _, e := range evs {
		var err error
		switch e.Kind {
		case KindFetch:
			suffix := ""
			if e.Flags&FlagWrongPath != 0 {
				suffix += " [wrong-path]"
			}
			if e.Flags&FlagMarked != 0 {
				suffix += " [marked]"
			}
			_, err = fmt.Fprintf(t.w, "%8d  %s   pc=%-5d %s%s\n", e.Cycle, e.Kind, e.PC, e.Text, suffix)
		case KindDispatch, KindExtract, KindCommit, KindIssue:
			_, err = fmt.Fprintf(t.w, "%8d  %-8s %s pc=%-5d %s\n", e.Cycle, e.Kind, tidName(e.Tid), e.PC, e.Text)
		case KindTrigger:
			_, err = fmt.Fprintf(t.w, "%8d  %s %s\n", e.Cycle, e.Kind, e.Text)
		case KindFlush:
			_, err = fmt.Fprintf(t.w, "%8d  %s  redirect after seq %d\n", e.Cycle, e.Kind, e.Arg)
		case KindSquash:
			_, err = fmt.Fprintf(t.w, "%8d  %s %d entries\n", e.Cycle, e.Kind, e.Arg)
		case KindFault:
			_, err = fmt.Fprintf(t.w, "%8d  %s  %s\n", e.Cycle, e.Kind, e.Text)
		case KindSessionBegin, KindSessionEnd:
			_, err = fmt.Fprintf(t.w, "%8d  %s #%d dload=%d %s\n", e.Cycle, e.Kind, e.Arg, e.PC, e.Text)
		default:
			_, err = fmt.Fprintf(t.w, "%8d  %s pc=%d seq=%d arg=%d %s\n", e.Cycle, e.Kind, e.PC, e.Seq, e.Arg, e.Text)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Collector buffers events in memory (tests and in-process consumers).
type Collector struct {
	Events []Event
}

func (c *Collector) WriteEvents(evs []Event) error {
	c.Events = append(c.Events, evs...)
	return nil
}
