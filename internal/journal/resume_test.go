package journal

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"spear/internal/iofault"
)

// countingFS counts whole-file reads.
type countingFS struct {
	iofault.FS
	reads atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.reads.Add(1)
	return c.FS.ReadFile(name)
}

// TestResumeReadsJournalOnce pins that resuming a journal reads it once:
// the repair pass's scan also tells Resume where the last complete line
// ends, so a torn or unterminated tail is trimmed without a second read.
// After the resume an append must land on a line boundary.
func TestResumeReadsJournalOnce(t *testing.T) {
	cases := []struct {
		name   string
		damage func(data []byte) []byte
		// replayed are the terminal keys Resume hands back; kept are the
		// terminal keys left in the file, before the new record "c".
		replayed, kept []string
		torn           bool
	}{
		{"clean", func(d []byte) []byte { return d }, []string{"a", "b"}, []string{"a", "b"}, false},
		{"torn tail", func(d []byte) []byte { return append(d, "2 41 0badf00d {\"status\":\"st"...) },
			[]string{"a", "b"}, []string{"a", "b"}, true},
		// An intact final record whose newline was lost is replayed, but
		// the bytes after the last newline are trimmed, as OpenConfig
		// trims them: the run re-executes on the next resume.
		{"unterminated final record", func(d []byte) []byte { return d[:len(d)-1] },
			[]string{"a", "b"}, []string{"a"}, false},
		{"missing", func([]byte) []byte { return nil }, nil, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, FileName)
			w, err := Open(dir, true)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w,
				Record{Status: StatusDone, Key: "a", Result: []byte(`1`)},
				Record{Status: StatusDone, Key: "b", Result: []byte(`2`)})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := c.damage(data); d != nil {
				err = os.WriteFile(path, d, 0o644)
			} else {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				t.Fatal(err)
			}

			fsys := &countingFS{FS: iofault.OS()}
			st, w, err := Resume(dir, Config{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			if n := fsys.reads.Load(); n != 1 {
				t.Errorf("resume read the journal %d times, want 1", n)
			}
			if st.Torn != c.torn || len(st.Terminal) != len(c.replayed) {
				t.Errorf("replayed %d terminal records (torn %v), want %v (torn %v)",
					len(st.Terminal), st.Torn, c.replayed, c.torn)
			}
			for _, k := range c.replayed {
				if _, ok := st.Terminal[k]; !ok {
					t.Errorf("resume did not replay %q", k)
				}
			}
			appendAll(t, w, Record{Status: StatusDone, Key: "c", Result: []byte(`3`)})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rep, err := Fsck(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("journal damaged after resume and append:\n%s", rep.Summary())
			}
			after, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]string(nil), c.kept...), "c")
			if len(after.Terminal) != len(want) {
				t.Errorf("file holds %d terminal records, want %v", len(after.Terminal), want)
			}
			for _, k := range want {
				if _, ok := after.Terminal[k]; !ok {
					t.Errorf("file lost %q", k)
				}
			}
		})
	}
}
