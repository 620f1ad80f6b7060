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
	got, e, err := ix.Get("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Get = %q, want %q", got, want)
	}
	if e.Bytes != len(want) || !e.Completed.Equal(time.Unix(100, 0)) {
		t.Errorf("entry = %+v", e)
	}

	// A fresh index over the same dir re-discovers the report from disk.
	ix2 := mustOpen(t, Config{Dir: dir})
	if ix2.Len() != 1 {
		t.Fatalf("reopened index has %d entries, want 1", ix2.Len())
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

// TestCorruptReportQuarantinedNotServed is the integrity acceptance
// shape: a bit-flipped report record is quarantined to the sidecar and
// reported as damage — never served — both when the corruption is found
// at Open and when it lands between an Open and a Get.
func TestCorruptReportQuarantinedNotServed(t *testing.T) {
	t.Run("found-at-open", func(t *testing.T) {
		dir := t.TempDir()
		reg := perf.NewRegistry()
		ix := mustOpen(t, Config{Dir: dir})
		if err := ix.Put("abcd", testReport("x"), time.Time{}); err != nil {
			t.Fatal(err)
		}
		corruptReportRecord(t, dir, "abcd")
		appendRunRecord(t, dir, "abcd")

		var log bytes.Buffer
		ix2 := mustOpen(t, Config{Dir: dir, Perf: reg, Log: &log})
		if got := reg.Counter("store.quarantined").Value(); got != 1 {
			t.Errorf("store.quarantined = %d, want 1", got)
		}
		if !strings.Contains(log.String(), "abcd: 1 corrupt record(s) quarantined") {
			t.Errorf("log %q does not report the quarantine", log.String())
		}
		if ix2.Len() != 0 {
			t.Fatalf("corrupt report indexed: %d entries", ix2.Len())
		}
		if _, _, err := ix2.Get("abcd"); err == nil {
			t.Fatal("corrupt report served")
		}
		side := filepath.Join(dir, "abcd"+DirSuffix, journal.QuarantineName)
		if st, err := os.Stat(side); err != nil || st.Size() == 0 {
			t.Errorf("quarantine sidecar missing or empty: %v", err)
		}
	})

	t.Run("found-at-get", func(t *testing.T) {
		dir := t.TempDir()
		ix := mustOpen(t, Config{Dir: dir})
		if err := ix.Put("abcd", testReport("y"), time.Time{}); err != nil {
			t.Fatal(err)
		}
		corruptReportRecord(t, dir, "abcd") // after Open indexed it
		appendRunRecord(t, dir, "abcd")
		if _, _, err := ix.Get("abcd"); !errors.Is(err, ErrDamaged) {
			t.Fatalf("Get on corrupt record = %v, want ErrDamaged", err)
		}
		// The entry dropped out; the next Get is a plain miss.
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
			t.Fatalf("torn-tail report indexed: %d entries", ix2.Len())
		}
		if _, _, err := ix2.Get("abcd"); err == nil {
			t.Fatal("torn-tail report served")
		}
	})
}

// TestDirWithoutReportNotIndexed: a journal directory holding only run
// records (a live or resumable job) is invisible to the index.
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
		t.Errorf("report-less dir indexed: %d entries", ix.Len())
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
