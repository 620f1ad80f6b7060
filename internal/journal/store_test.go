package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spear/internal/iofault"
	"spear/internal/perf"
)

// corruptLine flips one bit in the journal's line number n (1-based),
// returning the original raw line.
func corruptLine(t *testing.T, dir string, n int) []byte {
	t.Helper()
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if n < 1 || n > len(lines) || len(lines[n-1]) == 0 {
		t.Fatalf("no content at line %d", n)
	}
	orig := append([]byte(nil), lines[n-1]...)
	// Flip a bit inside the JSON payload, past the frame prefix.
	lines[n-1][len(lines[n-1])/2] ^= 0x20
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return orig
}

func writeJournal(t *testing.T, dir string, recs ...Record) {
	t.Helper()
	w, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, recs...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV2HeaderAndFrames pins the on-disk v2 format: fresh journals start
// with the header line and every record is a checksummed frame.
func TestV2HeaderAndFrames(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		Record{Status: StatusStarted, Key: "k1"},
		Record{Status: StatusDone, Key: "k1", Result: []byte(`{"Cycles":9}`)},
	)
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] != Header {
		t.Errorf("first line = %q, want header %q", lines[0], Header)
	}
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, "2 ") {
			t.Errorf("line %d is not a v2 frame: %q", i+2, line)
		}
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := st.Terminal["k1"]; !ok || rec.Status != StatusDone {
		t.Fatalf("v2 round trip lost the record: %+v", st)
	}
}

// TestBareJSONLineIsDamage pins the one record format: a bare JSON
// object line (the retired v1 encoding) is damage like any unrecognised
// line — Scan's Bad when interior and Torn when final, quarantined by
// Repair and flagged by Fsck.
func TestBareJSONLineIsDamage(t *testing.T) {
	bare := `{"status":"done","key":"old","result":{"Cycles":3}}`
	good := frameLine(`{"status":"done","key":"new","result":{"Cycles":4}}`)

	sr, err := Scan(strings.NewReader(Header + "\n" + good + "\n" + bare + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Torn || len(sr.Bad) != 0 || len(sr.Recs) != 1 {
		t.Errorf("final bare line: torn=%v bad=%d recs=%d, want torn, 0, 1", sr.Torn, len(sr.Bad), len(sr.Recs))
	}

	content := Header + "\n" + bare + "\n" + good + "\n"
	sr, err = Scan(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Torn || len(sr.Bad) != 1 || sr.Bad[0].Line != 2 || !errors.Is(sr.Bad[0].Err, ErrBadRecord) || len(sr.Recs) != 1 {
		t.Errorf("interior bare line: torn=%v bad=%+v recs=%d, want one ErrBadRecord at line 2 and 1 record", sr.Torn, sr.Bad, len(sr.Recs))
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Bad) != 1 || rep.Records != 1 {
		t.Errorf("fsck on a bare line: %s", rep.Summary())
	}
	st, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Errorf("Repair quarantined %d, want 1", st.Quarantined)
	}
	if _, ok := st.Terminal["old"]; ok {
		t.Error("bare JSON record replayed")
	}
	if rec, ok := st.Terminal["new"]; !ok || rec.Status != StatusDone {
		t.Errorf("framed record lost beside the bare line: %+v", st.Terminal)
	}
	side, err := os.ReadFile(filepath.Join(dir, QuarantineName))
	if err != nil || string(side) != bare+"\n" {
		t.Errorf("sidecar = %q, %v; want the bare line", side, err)
	}
	if rep, err := Fsck(nil, dir); err != nil || !rep.Clean() {
		t.Errorf("fsck after Repair: %v\n%s", err, rep.Summary())
	}
}

// TestBitFlipIsDetectedAndQuarantined pins the reason v2 exists: a
// single flipped bit in a record is detected by the checksum, the
// lenient loader skips (counts) it, and fsck reports damage.
func TestBitFlipIsDetectedAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		Record{Status: StatusStarted, Key: "a"},
		Record{Status: StatusDone, Key: "a", Result: []byte(`{"Cycles":1}`)},
		Record{Status: StatusStarted, Key: "b"},
		Record{Status: StatusDone, Key: "b", Result: []byte(`{"Cycles":2}`)},
	)
	corruptLine(t, dir, 3) // a's done record (line 1 is the header)

	st, err := Load(dir)
	if err != nil {
		t.Fatalf("lenient load failed on corruption: %v", err)
	}
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	// a's done record is gone; its started record keeps it in flight so
	// resume re-executes it rather than trusting damaged bytes.
	if _, ok := st.Terminal["a"]; ok {
		t.Error("corrupt done record still replayed as terminal")
	}
	if _, ok := st.InFlight["a"]; !ok {
		t.Error("run with corrupt terminal record not in flight")
	}
	if rec, ok := st.Terminal["b"]; !ok || rec.Status != StatusDone {
		t.Error("intact record lost alongside the corrupt one")
	}

	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Error("fsck reported clean on a corrupt journal")
	}
	if len(rep.Bad) != 1 || rep.Bad[0].Line != 3 {
		t.Errorf("fsck Bad = %+v, want one entry at line 3", rep.Bad)
	}
}

// TestRepairQuarantinesAndHeals pins self-healing: Repair moves the
// damaged line to the sidecar verbatim, rewrites the journal with only
// intact records, and a second fsck is clean.
func TestRepairQuarantinesAndHeals(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		Record{Status: StatusStarted, Key: "a"},
		Record{Status: StatusDone, Key: "a", Result: []byte(`{"Cycles":1}`)},
		Record{Status: StatusStarted, Key: "b"},
		Record{Status: StatusDone, Key: "b", Result: []byte(`{"Cycles":2}`)},
	)
	orig := corruptLine(t, dir, 4)

	st, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.Torn {
		t.Errorf("Repair state quarantined=%d torn=%v, want 1, false", st.Quarantined, st.Torn)
	}

	side, err := os.ReadFile(filepath.Join(dir, QuarantineName))
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !bytes.Contains(side, bytes.TrimSpace(bytesCorrupt(orig))) {
		t.Error("sidecar does not hold the damaged line")
	}

	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("journal not clean after Repair: %s", rep.Summary())
	}
	if rep.Sidecar != 1 {
		t.Errorf("fsck Sidecar = %d, want 1", rep.Sidecar)
	}
	if rep.Records != 3 {
		t.Errorf("records after repair = %d, want 3", rep.Records)
	}

	// Repair on a healthy journal is a no-op.
	path := filepath.Join(dir, FileName)
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Quarantined != 0 || st2.Torn {
		t.Errorf("second Repair not a no-op: quarantined=%d torn=%v", st2.Quarantined, st2.Torn)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, healed) {
		t.Errorf("second Repair changed the journal: %v", err)
	}
	if side2, err := os.ReadFile(filepath.Join(dir, QuarantineName)); err != nil || !bytes.Equal(side2, side) {
		t.Errorf("second Repair changed the sidecar: %v", err)
	}
}

// bytesCorrupt reproduces corruptLine's mutation on a copy, so the test
// can assert the sidecar holds the damaged (not original) bytes.
func bytesCorrupt(orig []byte) []byte {
	b := append([]byte(nil), orig...)
	b[len(b)/2] ^= 0x20
	return b
}

// TestRepairPreservesBytesVerbatim pins that Repair never re-encodes
// surviving records: the intact lines appear byte-for-byte unchanged.
func TestRepairPreservesBytesVerbatim(t *testing.T) {
	dir := t.TempDir()
	// A frame whose payload has a field order json.Marshal would not
	// reproduce.
	kept := frameLine(`{"key":"old","status":"done","result":{"Cycles":3}}`)
	content := Header + "\n" + kept + "\nGARBAGE-INTERIOR\n" + frameLine(`{"status":"done","key":"new"}`) + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(nil, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(kept)) {
		t.Errorf("intact line re-encoded by Repair:\n%s", data)
	}
	if bytes.Contains(data, []byte("GARBAGE")) {
		t.Error("damaged line survived Repair")
	}
}

// TestRepairReturnsLoadedState pins the one recovery pass: for clean,
// torn-tail, interior-damaged and missing journals, the State Repair
// returns replays exactly what a fresh load of the repaired journal
// finds, and its Quarantined/Torn report what Repair changed.
func TestRepairReturnsLoadedState(t *testing.T) {
	recs := []Record{
		{Status: StatusStarted, Key: "a", T: 100},
		{Status: StatusDone, Key: "a", Result: []byte(`{"Cycles":1}`), T: 250},
		{Status: StatusStarted, Key: "b", T: 300},
		{Status: StatusDone, Key: "b", Result: []byte(`{"Cycles":2}`), T: 420},
		{Status: StatusStarted, Key: "c", T: 500},
		{Status: StatusDone, Key: "c", Result: []byte(`{"Cycles":3}`), T: 530},
	}
	tests := []struct {
		name        string
		damage      func(t *testing.T, dir string)
		quarantined int
		torn        bool
	}{
		{"clean", func(*testing.T, string) {}, 0, false},
		{"torn-tail", func(t *testing.T, dir string) {
			path := filepath.Join(dir, FileName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0, true},
		{"interior-damaged", func(t *testing.T, dir string) { corruptLine(t, dir, 3) }, 1, false},
		{"missing", func(t *testing.T, dir string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}, 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir, recs...)
			tc.damage(t, dir)
			st, err := Repair(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if st.Quarantined != tc.quarantined || st.Torn != tc.torn {
				t.Errorf("Repair quarantined=%d torn=%v, want %d, %v", st.Quarantined, st.Torn, tc.quarantined, tc.torn)
			}
			loaded, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Quarantined != 0 || loaded.Torn {
				t.Errorf("journal still damaged after Repair: quarantined=%d torn=%v", loaded.Quarantined, loaded.Torn)
			}
			if !reflect.DeepEqual(st.Terminal, loaded.Terminal) || !reflect.DeepEqual(st.InFlight, loaded.InFlight) ||
				!reflect.DeepEqual(st.DoneDurations, loaded.DoneDurations) {
				t.Errorf("Repair state differs from a fresh load:\nrepair: %+v\nload:   %+v", st, loaded)
			}
			if tc.name != "missing" && len(st.Terminal) == 0 {
				t.Error("Repair replayed no records; the comparison proves nothing")
			}
		})
	}
}

// TestFsckMissingJournal pins the vacuous case.
func TestFsckMissingJournal(t *testing.T) {
	rep, err := Fsck(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Missing || !rep.Clean() {
		t.Errorf("missing journal: %+v, want Missing and Clean", rep)
	}
}

// TestWriterRetriesTransientCommitErrors pins the self-healing writer:
// injected EIO/torn/short write failures are retried after truncating
// back to the durable offset, appends eventually succeed, the journal
// stays frame-intact, and the retries are counted.
func TestWriterRetriesTransientCommitErrors(t *testing.T) {
	fa := iofault.NewFaulty(iofault.OS(), iofault.Plan{
		Seed: 21,
		Rates: map[iofault.Kind]float64{
			iofault.KindEIO:   0.15,
			iofault.KindTorn:  0.15,
			iofault.KindShort: 0.1,
		},
	})
	dir := t.TempDir()
	reg := perf.NewRegistry()
	var w *Writer
	var err error
	for try := 0; try < 50 && w == nil; try++ {
		w, err = OpenConfig(dir, false, Config{FS: fa, CommitRetries: 25, Perf: reg})
	}
	if w == nil {
		t.Fatalf("open never succeeded: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		key := Hash("retry", string(rune('a'+i)))
		appendAll(t, w,
			Record{Status: StatusStarted, Key: key},
			Record{Status: StatusDone, Key: key, Result: []byte(`{"Cycles":1}`)},
		)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Terminal) != n || st.Quarantined != 0 || st.Torn {
		t.Errorf("state after faulted appends: %d terminal, %d quarantined, torn=%v; want %d, 0, false",
			len(st.Terminal), st.Quarantined, st.Torn, n)
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("journal damaged despite retry+truncate: %s", rep.Summary())
	}
	injected := 0
	for _, cnt := range fa.Injected() {
		injected += cnt
	}
	if injected == 0 {
		t.Fatal("plan injected no faults; test proves nothing")
	}
	if reg.Counter("journal.commit_retries").Value() == 0 {
		t.Error("journal.commit_retries = 0 despite injected failures")
	}
	if b := reg.Counter("journal.enospc_backoffs").Value(); b != 0 {
		t.Errorf("journal.enospc_backoffs = %d with no ENOSPC in the plan", b)
	}
}

// TestWriterBacksOffOnENOSPC pins the ENOSPC path: the writer counts its
// backoffs and survives once space "returns".
func TestWriterBacksOffOnENOSPC(t *testing.T) {
	fa := iofault.NewFaulty(iofault.OS(), iofault.Plan{
		Seed:  5,
		Rates: map[iofault.Kind]float64{iofault.KindENOSPC: 0.4},
	})
	dir := t.TempDir()
	reg := perf.NewRegistry()
	w, err := OpenConfig(dir, false, Config{
		FS:            fa,
		CommitRetries: 40,
		NospcBackoff:  time.Microsecond,
		Perf:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendAll(t, w, Record{Status: StatusStarted, Key: Hash("nospc", string(rune('0'+i)))})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("journal.enospc_backoffs").Value() == 0 {
		t.Error("0.4 ENOSPC rate produced no counted backoffs")
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 10 {
		t.Errorf("after ENOSPC storms: records=%d clean=%v, want 10, true", rep.Records, rep.Clean())
	}
}

// TestDirFsyncMakesJournalSurviveCrash pins satellite 1: with a
// fault-free plan, a journal created + appended + crashed survives with
// its records — which requires the SyncDir after create, because file
// content fsyncs alone do not make the directory entry durable.
func TestDirFsyncMakesJournalSurviveCrash(t *testing.T) {
	fa := iofault.NewFaulty(iofault.OS(), iofault.Plan{Seed: 1})
	dir := t.TempDir()
	w, err := OpenConfig(dir, false, Config{FS: fa})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, Record{Status: StatusDone, Key: "k", Result: []byte(`{"Cycles":7}`)})
	// Crash with the writer still open: the process died mid-sweep.
	if err := fa.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := st.Terminal["k"]; !ok || rec.Status != StatusDone {
		t.Fatalf("durably appended record lost at crash: %+v", st)
	}
	_ = w.Close()
}

// TestScanTornVsInterior pins the classification boundary: damage on the
// final content line is torn (dropped), identical damage one line
// earlier is quarantinable corruption.
func TestScanTornVsInterior(t *testing.T) {
	good := frameLine(`{"status":"started","key":"k"}`)
	tests := []struct {
		name    string
		content string
		torn    bool
		bad     int
	}{
		{"damage-at-tail", Header + "\n" + good + "\n2 29 deadbeef {\"status\":\"sta", true, 0},
		{"damage-interior", Header + "\n2 29 deadbeef junk\n" + good + "\n", false, 1},
		{"both", Header + "\nnonsense\n" + good + "\n2 9 00000000 trunc", true, 1},
	}
	for _, tc := range tests {
		sr, err := Scan(strings.NewReader(tc.content))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sr.Torn != tc.torn || len(sr.Bad) != tc.bad || len(sr.Recs) != 1 {
			t.Errorf("%s: torn=%v bad=%d recs=%d, want torn=%v bad=%d recs=1",
				tc.name, sr.Torn, len(sr.Bad), len(sr.Recs), tc.torn, tc.bad)
		}
	}
}

// TestFrameRejectsDamage enumerates frame-level damage modes.
func TestFrameRejectsDamage(t *testing.T) {
	payload := []byte(`{"status":"started","key":"k"}`)
	line := bytes.TrimSuffix(frame(payload), []byte("\n"))
	if got, err := parseFrame(line); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame failed: %q, %v", got, err)
	}
	damaged := [][]byte{
		line[:len(line)-1],                                 // truncated payload
		append(append([]byte(nil), line...), 'x'),          // appended garbage
		bytes.Replace(line, []byte("2 "), []byte("3 "), 1), // wrong version
		bytesCorrupt(line),                                 // interior bit flip
	}
	for i, d := range damaged {
		if _, err := parseFrame(d); err == nil {
			t.Errorf("damaged frame %d accepted: %q", i, d)
		}
	}
}
