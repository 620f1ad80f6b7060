package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"spear/internal/iofault"
)

// Store maintenance: fsck walks a journal and reports per-record
// integrity without touching it; Repair moves damaged records to the
// quarantine sidecar and rewrites the journal atomically; Compact folds
// the journal down to each run's latest record so a long-lived store —
// the persistent result cache behind resumable sweeps — does not grow
// with every superseded record. All rewrites follow the same crash-safe
// discipline: write to a temp file, fsync it, atomically rename over the
// journal, then fsync the parent directory.

// QuarantineName is the sidecar file (inside the journal directory)
// that Repair and Compact move damaged records into: evidence is
// preserved, the journal itself heals.
const QuarantineName = FileName + ".quarantine"

// FsckReport is the integrity walk of one journal directory.
type FsckReport struct {
	Dir string
	// Missing reports that no journal file exists (vacuously clean).
	Missing bool
	// Records is the intact-record count; V1/V2 split it by format.
	Records, V1, V2 int
	// Done/Failed/Skipped/InFlight summarize the replayed run states.
	Done, Failed, Skipped, InFlight int
	// Reports counts stored whole-request report records (the completed-
	// report index's entries; excluded from the run-state counts).
	Reports int
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
	fmt.Fprintf(&b, "journal %s: %d records (%d v2, %d v1): %d done, %d failed, %d skipped, %d in flight\n",
		r.Dir, r.Records, r.V2, r.V1, r.Done, r.Failed, r.Skipped, r.InFlight)
	if r.Reports > 0 {
		fmt.Fprintf(&b, "  %d stored report(s) in the completed-report index\n", r.Reports)
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
	data, err := fsys.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, fs.ErrNotExist) {
		rep.Missing = true
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sr, err := Scan(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	rep.Records, rep.V1, rep.V2 = len(sr.Recs), sr.V1, sr.V2
	rep.Bad, rep.Torn = sr.Bad, sr.Torn
	st := Replay(sr.Recs, sr.Torn)
	for _, rec := range st.Terminal {
		if IsReportKey(rec.Key) {
			rep.Reports++
			continue
		}
		switch rec.Status {
		case StatusDone:
			rep.Done++
		case StatusFailed:
			rep.Failed++
		case StatusSkipped:
			rep.Skipped++
		}
	}
	rep.InFlight = len(st.InFlight)
	if side, err := fsys.ReadFile(filepath.Join(dir, QuarantineName)); err == nil {
		rep.Sidecar = len(bytes.Split(bytes.TrimRight(side, "\n"), []byte("\n")))
		if len(bytes.TrimSpace(side)) == 0 {
			rep.Sidecar = 0
		}
	}
	return rep, nil
}

// RepairStats reports what Repair changed.
type RepairStats struct {
	// Quarantined is how many corrupt records moved to the sidecar.
	Quarantined int
	// TornTrimmed reports that a torn final record was dropped.
	TornTrimmed bool
	// Rewritten reports that the journal file was rewritten.
	Rewritten bool
}

// Repair self-heals the journal in dir: corrupt records are appended to
// the quarantine sidecar (fsync'd), the journal is rewritten atomically
// with only its intact records — original bytes preserved verbatim —
// and a torn tail is dropped. A missing or healthy journal is a no-op.
// Repair must not run concurrently with a live Writer on the directory.
func Repair(fsys iofault.FS, dir string) (*RepairStats, error) {
	if fsys == nil {
		fsys = iofault.OS()
	}
	stats := &RepairStats{}
	data, err := fsys.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, fs.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sr, err := Scan(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(sr.Bad) == 0 && !sr.Torn {
		return stats, nil
	}
	if len(sr.Bad) > 0 {
		if err := quarantine(fsys, dir, sr.Bad); err != nil {
			return nil, err
		}
		stats.Quarantined = len(sr.Bad)
	}
	stats.TornTrimmed = sr.Torn
	if err := rewrite(fsys, dir, sr.Raw); err != nil {
		return nil, err
	}
	stats.Rewritten = true
	return stats, nil
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

// CompactStats reports what Compact changed.
type CompactStats struct {
	RecordsBefore, RecordsAfter int
	BytesBefore, BytesAfter     int64
	// Quarantined counts corrupt records moved to the sidecar along the
	// way (compaction repairs as it goes).
	Quarantined int
	// TornTrimmed reports a torn final record was dropped.
	TornTrimmed bool
}

// Compact rewrites the journal keeping only each key's latest record —
// the terminal record for finished runs, the last started record for
// in-flight ones — so a long-lived result store stops growing with
// superseded history. Kept records are re-framed as v2 (this is the
// v1-to-v2 upgrade path); damaged records are quarantined first. The
// rewrite is atomic and directory-fsync'd. Compact must not run
// concurrently with a live Writer on the directory.
func Compact(fsys iofault.FS, dir string) (*CompactStats, error) {
	if fsys == nil {
		fsys = iofault.OS()
	}
	stats := &CompactStats{}
	data, err := fsys.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, fs.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sr, err := Scan(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(sr.Bad) > 0 {
		if err := quarantine(fsys, dir, sr.Bad); err != nil {
			return nil, err
		}
		stats.Quarantined = len(sr.Bad)
	}
	stats.TornTrimmed = sr.Torn
	stats.RecordsBefore = len(sr.Recs)
	stats.BytesBefore = int64(len(data))

	// Keep only the final record per key, in the order those final
	// records appear — Replay folds to exactly this state.
	lastIdx := make(map[string]int, len(sr.Recs))
	for i, rec := range sr.Recs {
		lastIdx[rec.Key] = i
	}
	var lines [][]byte
	for i, rec := range sr.Recs {
		if lastIdx[rec.Key] != i {
			continue
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("journal: compact: %w", err)
		}
		line := frame(payload)
		lines = append(lines, line[:len(line)-1]) // rewrite adds the newline
		stats.RecordsAfter++
	}
	if err := rewrite(fsys, dir, lines); err != nil {
		return nil, err
	}
	if st, err := fsys.Stat(filepath.Join(dir, FileName)); err == nil {
		stats.BytesAfter = st.Size()
	}
	return stats, nil
}
