package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Status: StatusStarted, Key: "k1", Kernel: "mcf", Config: "baseline"},
		{Status: StatusDone, Key: "k1", Kernel: "mcf", Config: "baseline", Attempts: 1, Result: []byte(`{"Cycles":42}`)},
		{Status: StatusStarted, Key: "k2", Kernel: "mcf", Config: "SPEAR-128"},
		{Status: StatusFailed, Key: "k2", Attempts: 3, Error: "watchdog: exceeded 5m"},
		{Status: StatusStarted, Key: "k3"},
		{Status: StatusSkipped, Key: "k3", Attempts: 3, Skip: "circuit breaker tripped"},
		{Status: StatusStarted, Key: "k4"},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Error("clean journal reported torn")
	}
	if got := len(st.Terminal); got != 3 {
		t.Errorf("terminal records = %d, want 3", got)
	}
	if rec := st.Terminal["k1"]; rec.Status != StatusDone || string(rec.Result) != `{"Cycles":42}` {
		t.Errorf("k1 = %+v", rec)
	}
	if rec := st.Terminal["k2"]; rec.Status != StatusFailed || rec.Error == "" || rec.Attempts != 3 {
		t.Errorf("k2 = %+v", rec)
	}
	if rec := st.Terminal["k3"]; rec.Status != StatusSkipped || rec.Skip == "" {
		t.Errorf("k3 = %+v", rec)
	}
	if _, ok := st.InFlight["k4"]; !ok || len(st.InFlight) != 1 {
		t.Errorf("in-flight = %+v, want exactly k4", st.InFlight)
	}
}

func TestLoadMissingJournalIsEmpty(t *testing.T) {
	st, err := Load(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Terminal) != 0 || len(st.InFlight) != 0 || st.Torn {
		t.Errorf("state = %+v, want empty", st)
	}
}

// TestTornTailRecovery is the crash scenario: the final append is cut off
// mid-byte. The reader must recover every intact record and report the
// journal as torn; the torn run stays in flight (or absent) so resume
// re-executes exactly it.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w,
		Record{Status: StatusStarted, Key: "a"},
		Record{Status: StatusDone, Key: "a", Attempts: 1, Result: []byte(`{"Cycles":7}`)},
		Record{Status: StatusStarted, Key: "b"},
		Record{Status: StatusDone, Key: "b", Attempts: 1, Result: []byte(`{"Cycles":9}`)},
	)
	w.Close()

	// Tear the final record mid-byte.
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Torn {
		t.Error("torn journal not reported as torn")
	}
	if rec := st.Terminal["a"]; rec.Status != StatusDone {
		t.Errorf("intact record a lost: %+v", rec)
	}
	if _, ok := st.Terminal["b"]; ok {
		t.Error("torn record b surfaced as terminal")
	}
	// b's started record survives, so resume re-runs exactly b.
	if _, ok := st.InFlight["b"]; !ok {
		t.Errorf("b not in flight: %+v", st.InFlight)
	}

	// Re-opening for append must trim the torn tail so new records do not
	// concatenate onto the garbage.
	w, err = Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, Record{Status: StatusDone, Key: "b", Attempts: 1, Result: []byte(`{"Cycles":9}`)})
	w.Close()
	st, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn {
		t.Error("repaired journal still torn")
	}
	if rec := st.Terminal["b"]; rec.Status != StatusDone {
		t.Errorf("b after repair = %+v", rec)
	}
}

// frameLine frames one JSON payload as a journal line without its
// newline.
func frameLine(payload string) string {
	return strings.TrimSuffix(string(frame([]byte(payload))), "\n")
}

// TestDecodeRejectsInteriorCorruption pins that Scan classifies a bad
// interior line as damage wrapping ErrBadRecord, whether the frame is
// garbage or intact around an invalid record.
func TestDecodeRejectsInteriorCorruption(t *testing.T) {
	started := frameLine(`{"status":"started","key":"a"}`)
	done := frameLine(`{"status":"done","key":"a"}`)
	for name, in := range map[string]string{
		"garbage": started + "\ngarbage not json\n" + done + "\n",
		// Unknown status mid-file is corruption too.
		"unknown status": frameLine(`{"status":"exploded","key":"a"}`) + "\n" + done + "\n",
	} {
		sr, err := Scan(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sr.Bad) != 1 || !errors.Is(sr.Bad[0].Err, ErrBadRecord) || sr.Torn {
			t.Errorf("%s: bad=%+v torn=%v, want one ErrBadRecord line and no torn tail", name, sr.Bad, sr.Torn)
		}
	}
}

func TestDecodeTornVariants(t *testing.T) {
	started := frameLine(`{"status":"started","key":"a"}`)
	done := frameLine(`{"status":"done","key":"a","result":{"Cycles":1}}`)
	for name, in := range map[string]string{
		"cut mid-frame":      started + "\n" + done[:len(done)/2],
		"cut mid-frame + nl": started + "\n" + done[:len(done)/2] + "\n",
		"empty final key":    started + "\n" + frameLine(`{"status":"done","key":""}`) + "\n",
	} {
		sr, err := Scan(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sr.Torn || len(sr.Bad) != 0 {
			t.Errorf("%s: torn=%v bad=%d, want a torn tail and no interior damage", name, sr.Torn, len(sr.Bad))
		}
		if len(sr.Recs) != 1 || sr.Recs[0].Key != "a" || sr.Recs[0].validate() != nil {
			t.Errorf("%s: recovered %+v", name, sr.Recs)
		}
	}
}

func TestTruncateDiscardsOldJournal(t *testing.T) {
	dir := t.TempDir()
	w, _ := Open(dir, false)
	appendAll(t, w, Record{Status: StatusStarted, Key: "old"})
	w.Close()
	w, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, Record{Status: StatusStarted, Key: "new"})
	w.Close()
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.InFlight["old"]; ok {
		t.Error("truncated journal still carries old records")
	}
	if _, ok := st.InFlight["new"]; !ok {
		t.Error("fresh record missing after truncate")
	}
}

func TestAppendRejectsBadRecords(t *testing.T) {
	w, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Status: "bogus", Key: "k"}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bad status: err = %v", err)
	}
	if err := w.Append(Record{Status: StatusDone}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("empty key: err = %v", err)
	}
}

func TestHashIsDeterministicAndDelimited(t *testing.T) {
	if Hash("a", "b") != Hash("a", "b") {
		t.Error("hash not deterministic")
	}
	if Hash("a", "b") == Hash("ab") || Hash("a", "b") == Hash("a", "b2")[:len(Hash("a", "b"))] && false {
		t.Error("hash collides across part boundaries")
	}
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Error("hash collides across part boundaries")
	}
	if len(Hash("x")) != 32 {
		t.Errorf("hash length = %d, want 32 hex chars", len(Hash("x")))
	}
}

func appendAll(t *testing.T, w *Writer, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}
