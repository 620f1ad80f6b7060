package obs

import (
	"bufio"
	"encoding/binary"
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

func fromJSON(j jsonEvent) (Event, error) {
	k, ok := ParseKind(j.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", j.Kind)
	}
	var flags uint8
	if j.WrongPath {
		flags |= FlagWrongPath
	}
	if j.Marked {
		flags |= FlagMarked
	}
	return Event{
		Cycle: j.Cycle,
		Kind:  k,
		Tid:   j.Tid,
		PC:    j.PC,
		Seq:   j.Seq,
		Addr:  j.Addr,
		Arg:   j.Arg,
		Flags: flags,
		Text:  j.Text,
	}, nil
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

// ReadJSONL decodes a JSONL event stream (the inverse of JSONLWriter).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var j jsonEvent
		if err := dec.Decode(&j); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		e, err := fromJSON(j)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// binaryMagic heads the binary event stream; the trailing digit is the
// format version.
var binaryMagic = []byte("SPEAROBS1\n")

// BinaryWriter emits a compact fixed-layout little-endian encoding:
// magic, then per event cycle u64, seq u64, arg u64, addr u32, pc i32,
// kind u8, tid u8, flags u8, text length u16, text bytes.
type BinaryWriter struct {
	bw     *bufio.Writer
	c      io.Closer
	headed bool
}

// NewBinary wraps w in a binary event writer. If w is an io.Closer it is
// closed by Close.
func NewBinary(w io.Writer) *BinaryWriter {
	bw := &BinaryWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		bw.c = c
	}
	return bw
}

func (w *BinaryWriter) WriteEvents(evs []Event) error {
	if !w.headed {
		if _, err := w.bw.Write(binaryMagic); err != nil {
			return err
		}
		w.headed = true
	}
	var rec [35]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint64(rec[0:], e.Cycle)
		binary.LittleEndian.PutUint64(rec[8:], e.Seq)
		binary.LittleEndian.PutUint64(rec[16:], e.Arg)
		binary.LittleEndian.PutUint32(rec[24:], e.Addr)
		binary.LittleEndian.PutUint32(rec[28:], uint32(e.PC))
		rec[32] = byte(e.Kind)
		rec[33] = e.Tid
		rec[34] = e.Flags
		if _, err := w.bw.Write(rec[:]); err != nil {
			return err
		}
		text := e.Text
		if len(text) > 0xFFFF {
			text = text[:0xFFFF]
		}
		var tl [2]byte
		binary.LittleEndian.PutUint16(tl[:], uint16(len(text)))
		if _, err := w.bw.Write(tl[:]); err != nil {
			return err
		}
		if _, err := w.bw.WriteString(text); err != nil {
			return err
		}
	}
	return nil
}

func (w *BinaryWriter) Close() error {
	err := w.bw.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadBinary decodes a binary event stream (the inverse of BinaryWriter).
func ReadBinary(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("obs: reading binary header: %w", err)
	}
	if string(magic) != string(binaryMagic) {
		return nil, fmt.Errorf("obs: bad binary magic %q", magic)
	}
	var out []Event
	var rec [35]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		e := Event{
			Cycle: binary.LittleEndian.Uint64(rec[0:]),
			Seq:   binary.LittleEndian.Uint64(rec[8:]),
			Arg:   binary.LittleEndian.Uint64(rec[16:]),
			Addr:  binary.LittleEndian.Uint32(rec[24:]),
			PC:    int32(binary.LittleEndian.Uint32(rec[28:])),
			Kind:  Kind(rec[32]),
			Tid:   rec[33],
			Flags: rec[34],
		}
		var tl [2]byte
		if _, err := io.ReadFull(br, tl[:]); err != nil {
			return out, err
		}
		if n := binary.LittleEndian.Uint16(tl[:]); n > 0 {
			text := make([]byte, n)
			if _, err := io.ReadFull(br, text); err != nil {
				return out, err
			}
			e.Text = string(text)
		}
		out = append(out, e)
	}
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

func (t *TextWriter) Close() error { return nil }

// Collector buffers events in memory (tests and in-process consumers).
type Collector struct {
	Events []Event
}

func (c *Collector) WriteEvents(evs []Event) error {
	c.Events = append(c.Events, evs...)
	return nil
}

func (c *Collector) Close() error { return nil }
