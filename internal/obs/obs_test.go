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
	for k := KindFetch; k <= KindSpan; k++ {
		if k > KindSessionEnd && k < KindSpan {
			// Retired storage-health kinds: the values stay unused.
			if name := k.String(); name != "unknown" {
				t.Errorf("retired kind %d still named %q", k, name)
			}
			continue
		}
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestRecorderPerSinkCycleLimits(t *testing.T) {
	all, first := &Collector{}, &Collector{}
	r := NewRecorder().Attach(all, 0).Attach(first, 5)
	for _, e := range sampleEvents() {
		if r.Active(e.Cycle) {
			r.Emit(e)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(all.Events) != len(sampleEvents()) {
		t.Errorf("unlimited sink got %d events, want %d", len(all.Events), len(sampleEvents()))
	}
	for _, e := range first.Events {
		if e.Cycle >= 5 {
			t.Errorf("limited sink received event at cycle %d", e.Cycle)
		}
	}
	if len(first.Events) != 6 {
		t.Errorf("limited sink got %d events, want 6", len(first.Events))
	}
}

func TestRecorderInactiveWhenPastEveryLimit(t *testing.T) {
	r := NewRecorder().Attach(&Collector{}, 10)
	if !r.Active(9) {
		t.Error("active window rejected")
	}
	if r.Active(10) {
		t.Error("recorder active past its only sink's window")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Active(0) {
		t.Error("nil recorder active")
	}
	r.Flush()
	if err := r.Close(); err != nil {
		t.Error(err)
	}
	if err := r.Err(); err != nil {
		t.Error(err)
	}
}

func TestRecorderFlushesOnRingFull(t *testing.T) {
	c := &Collector{}
	r := NewRecorder().Attach(c, 0)
	for i := 0; i < ringCap+10; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindFetch})
	}
	if len(c.Events) < ringCap {
		t.Errorf("ring full did not flush: sink has %d events", len(c.Events))
	}
	r.Flush()
	if len(c.Events) != ringCap+10 {
		t.Errorf("sink has %d events, want %d", len(c.Events), ringCap+10)
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) WriteEvents(evs []Event) error {
	f.n++
	return os.ErrInvalid
}
func (f *failingWriter) Close() error { return nil }

func TestRecorderDisablesBrokenSink(t *testing.T) {
	fw := &failingWriter{}
	ok := &Collector{}
	r := NewRecorder().Attach(fw, 0).Attach(ok, 0)
	r.Emit(Event{Cycle: 1})
	r.Flush()
	r.Emit(Event{Cycle: 2})
	r.Flush()
	if fw.n != 1 {
		t.Errorf("broken sink written %d times, want 1", fw.n)
	}
	if len(ok.Events) != 2 {
		t.Errorf("healthy sink got %d events, want 2", len(ok.Events))
	}
	if r.Err() == nil {
		t.Error("writer error not retained")
	}
}
