package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spear/internal/journal"
	"spear/internal/perf"
)

func mustOpen(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func testReport(tag string) []byte {
	return []byte(`{"schema":"spear-report/2","experiment":"` + tag + `","rows":[]}` + "\n")
}

// TestPutGetRoundTrip pins the core contract: bytes out == bytes in,
// across a fresh Open of the same data dir (the restart path).
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ix := mustOpen(t, Config{Dir: dir})
	want := testReport("rt")
	if err := ix.Put("aaaa", want, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	got, completed, err := ix.Get("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get = %q, want %q", got, want)
	}
	if !completed.Equal(time.Unix(100, 0)) {
		t.Errorf("completed = %v, want %v", completed, time.Unix(100, 0))
	}

	// A fresh store over the same dir reads the report from disk.
	ix2 := mustOpen(t, Config{Dir: dir})
	if ix2.Len() != 1 {
		t.Fatalf("reopened store counts %d reports, want 1", ix2.Len())
	}
	got2, _, err := ix2.Get("aaaa")
	if err != nil || !bytes.Equal(got2, want) {
		t.Errorf("reopened Get = %q, %v", got2, err)
	}
}

func TestMissingKeyAndMissingDir(t *testing.T) {
	ix := mustOpen(t, Config{Dir: filepath.Join(t.TempDir(), "never-created")})
	if ix.Len() != 0 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, _, err := ix.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get err = %v, want ErrNotFound", err)
	}
}

// corruptReportRecord flips one byte inside the stored report record's
// payload, simulating silent media corruption the CRC must catch.
func corruptReportRecord(t *testing.T, dir, key string) {
	t.Helper()
	path := filepath.Join(dir, key+DirSuffix, journal.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte(journal.ReportKey(key)))
	if idx < 0 {
		t.Fatalf("no report record in %s", path)
	}
	data[idx+len(journal.ReportKey(key))+20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendRunRecord appends one run record after the report record, the
// position a real recovery sequence produces (damage found → store miss
// → resubmission appends new run records after the damaged line). It
// makes corruption of the report record *interior* damage, which the
// journal's taxonomy quarantines rather than trims.
func appendRunRecord(t *testing.T, dir, key string) {
	t.Helper()
	w, err := journal.Open(filepath.Join(dir, key+DirSuffix), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(journal.Record{Status: journal.StatusStarted, Key: "rerun", Kernel: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenReadsNoJournal: Open and Len never repair a journal. Damage
// is found by the first Get of its key, which quarantines the bit-flipped
// report record to the sidecar, counts and logs it, and serves nothing.
func TestOpenReadsNoJournal(t *testing.T) {
	dir := t.TempDir()
	if err := mustOpen(t, Config{Dir: dir}).Put("abcd", testReport("x"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	corruptReportRecord(t, dir, "abcd")
	appendRunRecord(t, dir, "abcd")

	reg := perf.NewRegistry()
	var log bytes.Buffer
	ix := mustOpen(t, Config{Dir: dir, Perf: reg, Log: &log})
	if ix.Len() != 0 {
		t.Fatalf("corrupt report counted: Len = %d", ix.Len())
	}
	side := filepath.Join(dir, "abcd"+DirSuffix, journal.QuarantineName)
	if _, err := os.Stat(side); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open or Len touched the journal: sidecar stat = %v", err)
	}
	if got := reg.Counter("store.quarantined").Value(); got != 0 {
		t.Fatalf("store.quarantined = %d after Open, want 0", got)
	}

	got, _, err := ix.Get("abcd")
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("Get on corrupt record = %v, want ErrDamaged", err)
	}
	if got != nil {
		t.Fatalf("corrupt report served: %q", got)
	}
	if st, err := os.Stat(side); err != nil || st.Size() == 0 {
		t.Errorf("quarantine sidecar missing or empty: %v", err)
	}
	if got := reg.Counter("store.quarantined").Value(); got != 1 {
		t.Errorf("store.quarantined = %d, want 1", got)
	}
	if !strings.Contains(log.String(), "abcd: 1 corrupt record(s) quarantined") {
		t.Errorf("log %q does not report the quarantine", log.String())
	}
}

// TestCorruptReportQuarantinedNotServed is the integrity acceptance
// shape: a bit-flipped report record is quarantined to the sidecar and
// reported as damage — never served — when the corruption lands after
// the report was stored and served.
func TestCorruptReportQuarantinedNotServed(t *testing.T) {
	t.Run("found-at-get", func(t *testing.T) {
		dir := t.TempDir()
		ix := mustOpen(t, Config{Dir: dir})
		if err := ix.Put("abcd", testReport("y"), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.Get("abcd"); err != nil {
			t.Fatal(err)
		}
		corruptReportRecord(t, dir, "abcd") // after a Get served it
		appendRunRecord(t, dir, "abcd")
		if _, _, err := ix.Get("abcd"); !errors.Is(err, ErrDamaged) {
			t.Fatalf("Get on corrupt record = %v, want ErrDamaged", err)
		}
		// The record is in the sidecar now; the next Get is a plain miss.
		if _, _, err := ix.Get("abcd"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get after quarantine = %v, want ErrNotFound", err)
		}
	})

	// Damage on the journal's final line cannot be told apart from a
	// torn append: it is trimmed, not quarantined — but still never
	// served, which is the property that matters.
	t.Run("final-line-damage-trimmed", func(t *testing.T) {
		dir := t.TempDir()
		ix := mustOpen(t, Config{Dir: dir})
		if err := ix.Put("abcd", testReport("z"), time.Time{}); err != nil {
			t.Fatal(err)
		}
		corruptReportRecord(t, dir, "abcd") // report record is the final line
		ix2 := mustOpen(t, Config{Dir: dir})
		if ix2.Len() != 0 {
			t.Fatalf("torn-tail report counted: Len = %d", ix2.Len())
		}
		if _, _, err := ix2.Get("abcd"); err == nil {
			t.Fatal("torn-tail report served")
		}
	})
}

// TestDirWithoutReportNotIndexed: a journal directory holding only run
// records (a live or resumable job) holds no stored report.
func TestDirWithoutReportNotIndexed(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(filepath.Join(dir, "beef"+DirSuffix), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(journal.Record{Status: journal.StatusStarted, Key: "run1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix := mustOpen(t, Config{Dir: dir})
	if ix.Len() != 0 {
		t.Errorf("report-less dir counted: Len = %d", ix.Len())
	}
	if _, _, err := ix.Get("beef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get = %v, want ErrNotFound", err)
	}
}

// TestPerfCounters sanity-checks the metric names the dashboards key on.
func TestPerfCounters(t *testing.T) {
	reg := perf.NewRegistry()
	ix := mustOpen(t, Config{Dir: t.TempDir(), Perf: reg})
	if err := ix.Put("k", testReport("m"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]bool{"store.puts": false, "store.hits": false, "store.misses": false}
	for _, m := range snap.Counters {
		if _, ok := want[m.Name]; ok && m.Value > 0 {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("counter %s not incremented", name)
		}
	}
}
