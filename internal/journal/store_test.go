package journal

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestMixedV1V2Journal pins the compatibility promise: a v1-era journal
// (bare JSON lines, no header) keeps working, and new appends to it are
// v2 frames that load alongside the old records.
func TestMixedV1V2Journal(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"status":"started","key":"old"}` + "\n" +
		`{"status":"done","key":"old","result":{"Cycles":3}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir,
		Record{Status: StatusStarted, Key: "new"},
		Record{Status: StatusDone, Key: "new", Result: []byte(`{"Cycles":4}`)},
	)
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"old", "new"} {
		if rec, ok := st.Terminal[key]; !ok || rec.Status != StatusDone {
			t.Errorf("key %s missing or non-done in mixed journal: %+v", key, rec)
		}
	}
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.V1 != 2 || rep.V2 != 2 {
		t.Errorf("fsck counts v1=%d v2=%d, want 2 and 2", rep.V1, rep.V2)
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
	_ = orig

	stats, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || !stats.Rewritten {
		t.Errorf("RepairStats = %+v, want 1 quarantined, rewritten", stats)
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
	stats2, err := Repair(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rewritten || stats2.Quarantined != 0 {
		t.Errorf("second Repair not a no-op: %+v", stats2)
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
	// A v1 line with field order json.Marshal would not reproduce.
	v1 := `{"key":"old","status":"done","result":{"Cycles":3}}`
	content := Header + "\n" + v1 + "\nGARBAGE-INTERIOR\n" +
		string(bytes.TrimSuffix(frame([]byte(`{"status":"done","key":"new"}`)), []byte("\n"))) + "\n"
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
	if !bytes.Contains(data, []byte(v1)) {
		t.Errorf("v1 line re-encoded by Repair:\n%s", data)
	}
	if bytes.Contains(data, []byte("GARBAGE")) {
		t.Error("damaged line survived Repair")
	}
}

// TestCompactFoldsToLatestRecords pins compaction: only each key's
// final record survives, re-framed as v2, and replayed state matches.
func TestCompactFoldsToLatestRecords(t *testing.T) {
	dir := t.TempDir()
	// v1 journal with history: key a done, key b re-run twice, key c in flight.
	v1 := strings.Join([]string{
		`{"status":"started","key":"a"}`,
		`{"status":"done","key":"a","result":{"Cycles":1}}`,
		`{"status":"started","key":"b"}`,
		`{"status":"failed","key":"b","error":"boom"}`,
		`{"status":"started","key":"b"}`,
		`{"status":"done","key":"b","result":{"Cycles":2}}`,
		`{"status":"started","key":"c"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	stats, err := Compact(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsBefore != 7 || stats.RecordsAfter != 3 {
		t.Errorf("compact %d -> %d records, want 7 -> 3", stats.RecordsBefore, stats.RecordsAfter)
	}

	after, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Terminal) != len(before.Terminal) || len(after.InFlight) != len(before.InFlight) {
		t.Errorf("replayed state changed: before %d/%d, after %d/%d terminal/inflight",
			len(before.Terminal), len(before.InFlight), len(after.Terminal), len(after.InFlight))
	}
	for key, rec := range before.Terminal {
		got, ok := after.Terminal[key]
		if !ok || got.Status != rec.Status || !bytes.Equal(got.Result, rec.Result) {
			t.Errorf("key %s changed by compaction: %+v vs %+v", key, rec, got)
		}
	}

	// Compaction is the v1->v2 upgrade path.
	rep, err := Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.V1 != 0 || rep.V2 != 3 {
		t.Errorf("after compact v1=%d v2=%d, want 0 and 3", rep.V1, rep.V2)
	}

	// Appending to the compacted journal keeps working.
	writeJournal(t, dir, Record{Status: StatusDone, Key: "c", Result: []byte(`{"Cycles":5}`)})
	final, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.InFlight) != 0 || len(final.Terminal) != 3 {
		t.Errorf("post-compact append state: %d terminal, %d in flight", len(final.Terminal), len(final.InFlight))
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
	good := string(bytes.TrimSuffix(frame([]byte(`{"status":"started","key":"k"}`)), []byte("\n")))
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
