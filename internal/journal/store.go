package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spear/internal/iofault"
)

// Store maintenance: fsck walks a journal and reports per-record
// integrity without touching it; Repair moves damaged records to the
// quarantine sidecar, rewrites the journal atomically, and hands back
// the replayed survivors. The rewrite follows the crash-safe discipline:
// write to a temp file, fsync it, atomically rename over the journal,
// then fsync the parent directory.

// QuarantineName is the sidecar file (inside the journal directory)
// that Repair moves damaged records into: evidence is preserved, the
// journal itself heals.
const QuarantineName = FileName + ".quarantine"

// FsckReport is the integrity walk of one journal directory.
type FsckReport struct {
	Dir string
	// Missing reports that no journal file exists (vacuously clean).
	Missing bool
	// Records is the intact-record count.
	Records int
	// Runs summarizes the replayed run states, as progress views do
	// (stored report records count in Runs.Reports, not as runs).
	Runs Progress
	// Bad lists interior records failing framing, checksum, or validity.
	Bad []Quarantined
	// Torn reports a damaged final record (crash mid-append).
	Torn bool
	// Sidecar counts records already quarantined by earlier repairs.
	Sidecar int
}

// Clean reports whether the journal has no outstanding damage. Records
// already moved to the quarantine sidecar do not count: quarantine IS
// the repaired state, and the sidecar is its audit trail.
func (r *FsckReport) Clean() bool { return !r.Torn && len(r.Bad) == 0 }

// Summary renders the human fsck report.
func (r *FsckReport) Summary() string {
	var b strings.Builder
	if r.Missing {
		fmt.Fprintf(&b, "journal %s: no journal file (nothing to verify)\n", r.Dir)
		return b.String()
	}
	fmt.Fprintf(&b, "journal %s: %d records: %d done, %d failed, %d skipped, %d in flight\n",
		r.Dir, r.Records, r.Runs.Done, r.Runs.Failed, r.Runs.Skipped, len(r.Runs.InFlight))
	if r.Runs.Reports > 0 {
		fmt.Fprintf(&b, "  %d stored report record(s)\n", r.Runs.Reports)
	}
	if r.Torn {
		fmt.Fprintf(&b, "  torn final record (crash mid-append; its run re-executes on resume)\n")
	}
	for _, q := range r.Bad {
		fmt.Fprintf(&b, "  corrupt record at line %d: %v\n", q.Line, q.Err)
	}
	if r.Sidecar > 0 {
		fmt.Fprintf(&b, "  %d previously quarantined records in %s\n", r.Sidecar, QuarantineName)
	}
	if r.Clean() {
		fmt.Fprintf(&b, "  integrity: OK\n")
	} else {
		fmt.Fprintf(&b, "  integrity: DAMAGED (resume quarantines and re-executes the damaged runs)\n")
	}
	return b.String()
}

// Fsck walks the journal in dir and reports per-record integrity
// without modifying anything.
func Fsck(fsys iofault.FS, dir string) (*FsckReport, error) {
	if fsys == nil {
		fsys = iofault.OS()
	}
	rep := &FsckReport{Dir: dir}
	sr, err := scanFile(fsys, dir)
	if err != nil {
		return nil, err
	}
	if sr == nil {
		rep.Missing = true
		return rep, nil
	}
	rep.Records = len(sr.Recs)
	rep.Bad, rep.Torn = sr.Bad, sr.Torn
	rep.Runs = sr.replay().Progress()
	if side, err := fsys.ReadFile(filepath.Join(dir, QuarantineName)); err == nil {
		rep.Sidecar = len(bytes.Split(bytes.TrimRight(side, "\n"), []byte("\n")))
		if len(bytes.TrimSpace(side)) == 0 {
			rep.Sidecar = 0
		}
	}
	return rep, nil
}

// Repair self-heals the journal in dir and returns the replayed state
// of the intact records it kept: corrupt records are appended to the
// quarantine sidecar (fsync'd) and counted in State.Quarantined, the
// journal is rewritten atomically with only its intact records —
// original bytes preserved verbatim — and a torn tail is dropped and
// reported as State.Torn. A missing or healthy journal is left as it
// is. Repair must not run concurrently with a live Writer on the
// directory.
func Repair(fsys iofault.FS, dir string) (*State, error) {
	if fsys == nil {
		fsys = iofault.OS()
	}
	sr, err := repair(fsys, dir)
	if err != nil {
		return nil, err
	}
	return sr.replay(), nil
}

// repair is Repair returning the scan of the journal it read; after a
// rewrite the file ends on a newline and the scan's tail is 0.
func repair(fsys iofault.FS, dir string) (*ScanResult, error) {
	sr, err := scanFile(fsys, dir)
	if err != nil {
		return nil, err
	}
	if sr != nil && (len(sr.Bad) > 0 || sr.Torn) {
		if len(sr.Bad) > 0 {
			if err := quarantine(fsys, dir, sr.Bad); err != nil {
				return nil, err
			}
		}
		if err := rewrite(fsys, dir, sr.Raw); err != nil {
			return nil, err
		}
		sr.tail = 0
	}
	return sr, nil
}

// quarantine appends damaged lines to the sidecar, durably.
func quarantine(fsys iofault.FS, dir string, bad []Quarantined) error {
	path := filepath.Join(dir, QuarantineName)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	var buf []byte
	for _, q := range bad {
		buf = append(buf, q.Data...)
		buf = append(buf, '\n')
	}
	_, werr := f.Write(buf)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return fmt.Errorf("journal: quarantine: %w", err)
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	return nil
}

// rewrite atomically replaces the journal with a header plus the given
// raw record lines: write temp, fsync, rename, fsync parent directory.
func rewrite(fsys iofault.FS, dir string, lines [][]byte) error {
	path := filepath.Join(dir, FileName)
	tmp := path + ".rewrite"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	buf := append([]byte(nil), Header...)
	buf = append(buf, '\n')
	for _, line := range lines {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	_, werr := f.Write(buf)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return fmt.Errorf("journal: rewrite: %w", err)
		}
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	return nil
}
