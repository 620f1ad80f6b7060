package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleEvents is a fixed sequence exercising every kind and field; the
// JSONL golden file locks its wire encoding.
func sampleEvents() []Event {
	return []Event{
		{Cycle: 0, Kind: KindFetch, Tid: 0, PC: 4, Seq: 0, Addr: 0x2000, Text: "ld r7, 0(r6)", Flags: FlagMarked},
		{Cycle: 1, Kind: KindFetch, Tid: 0, PC: 9, Seq: 1, Text: "addi r1, r1, 1", Flags: FlagWrongPath},
		{Cycle: 2, Kind: KindDispatch, Tid: 0, PC: 4, Seq: 0, Addr: 0x2000, Text: "ld r7, 0(r6)"},
		{Cycle: 2, Kind: KindTrigger, Tid: 1, PC: 4, Arg: 1, Text: "armed (re-align) (occupancy 64, p-head 10)"},
		{Cycle: 3, Kind: KindSessionBegin, Tid: 1, PC: 4, Arg: 1, Text: "re-align"},
		{Cycle: 4, Kind: KindExtract, Tid: 1, PC: 4, Seq: 0, Addr: 0x2000, Text: "ld r7, 0(r6)"},
		{Cycle: 5, Kind: KindIssue, Tid: 1, PC: 4, Seq: 0, Arg: 133},
		{Cycle: 6, Kind: KindCommit, Tid: 0, PC: 4, Seq: 0, Text: "ld r7, 0(r6)"},
		{Cycle: 7, Kind: KindFlush, Tid: 0, Arg: 17},
		{Cycle: 7, Kind: KindSquash, Tid: 0, Arg: 5},
		{Cycle: 8, Kind: KindFault, Tid: 1, PC: 12, Arg: 1, Text: "oob"},
		{Cycle: 9, Kind: KindSessionEnd, Tid: 1, PC: 4, Arg: 1, Text: "fault:oob"},
	}
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	if err := w.WriteEvents(sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL event schema drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", buf.Bytes(), want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	if err := w.WriteEvents(sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, sampleEvents())
	}
}

func TestKindStringsRoundTrip(t *testing.T) {
	for k := KindFetch; k <= KindSessionEnd; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, back, ok)
		}
	}
	for k := KindSessionEnd + 1; k <= 16; k++ {
		// Retired kinds: the values stay unused.
		if name := k.String(); name != "unknown" {
			t.Errorf("retired kind %d still named %q", k, name)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestRecorderCycleBound(t *testing.T) {
	first := &Collector{}
	r := NewRecorder(first, 5)
	for _, e := range sampleEvents() {
		if r.Active(e.Cycle) {
			r.Emit(e)
		}
	}
	r.Flush()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for _, e := range first.Events {
		if e.Cycle >= 5 {
			t.Errorf("bounded recorder delivered an event at cycle %d", e.Cycle)
		}
	}
	if len(first.Events) != 6 {
		t.Errorf("bounded recorder delivered %d events, want 6", len(first.Events))
	}

	all := &Collector{}
	r = NewRecorder(all, 0)
	for _, e := range sampleEvents() {
		if !r.Active(e.Cycle) {
			t.Fatalf("unbounded recorder inactive at cycle %d", e.Cycle)
		}
		r.Emit(e)
	}
	r.Flush()
	if len(all.Events) != len(sampleEvents()) {
		t.Errorf("unbounded recorder delivered %d events, want %d", len(all.Events), len(sampleEvents()))
	}
}

func TestRecorderInactiveWhenPastEveryLimit(t *testing.T) {
	r := NewRecorder(&Collector{}, 10)
	if !r.Active(9) {
		t.Error("active window rejected")
	}
	if r.Active(10) {
		t.Error("recorder active past its cycle bound")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	r := NewRecorder(nil, 0)
	if r != nil {
		t.Fatal("a recorder without a writer is not the nil recorder")
	}
	if r.Active(0) {
		t.Error("nil recorder active")
	}
	r.Flush()
	if err := r.Err(); err != nil {
		t.Error(err)
	}
}

func TestRecorderFlushesOnRingFull(t *testing.T) {
	c := &Collector{}
	r := NewRecorder(c, 0)
	for i := 0; i < ringCap+10; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindFetch})
	}
	if len(c.Events) < ringCap {
		t.Errorf("ring full did not flush: writer has %d events", len(c.Events))
	}
	r.Flush()
	if len(c.Events) != ringCap+10 {
		t.Errorf("writer has %d events, want %d", len(c.Events), ringCap+10)
	}
}

// failingWriter fails its first write and records every later one.
type failingWriter struct {
	calls int
	Collector
}

func (f *failingWriter) WriteEvents(evs []Event) error {
	f.calls++
	if f.calls == 1 {
		return os.ErrInvalid
	}
	return f.Collector.WriteEvents(evs)
}

func TestRecorderDisablesBrokenSink(t *testing.T) {
	fw := &failingWriter{}
	r := NewRecorder(fw, 0)
	r.Emit(Event{Cycle: 1})
	r.Flush()
	if r.Err() != os.ErrInvalid {
		t.Fatalf("Err() = %v, want the failed write's error", r.Err())
	}
	r.Emit(Event{Cycle: 2})
	r.Flush()
	if fw.calls != 1 || len(fw.Events) != 0 {
		t.Errorf("writer called %d times with %d events delivered after its failure, want 1 call and none", fw.calls, len(fw.Events))
	}
	if r.Err() != os.ErrInvalid {
		t.Errorf("Err() = %v after a later flush, want the first error", r.Err())
	}
}
