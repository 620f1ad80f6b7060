// Package journal implements the durable result store behind crash-safe
// experiment sweeps: a write-ahead run journal whose records double as a
// persistent, content-addressed result cache. Every simulation run is
// identified by a deterministic content hash of (kernel, compiler
// options, machine configuration, seed); the engine appends a "started"
// record before a run and a terminal "done"/"failed"/"skipped" record
// after it, each fsync'd, so that a sweep killed at any instruction
// boundary can be resumed: completed runs replay from the journal,
// in-flight runs re-execute, and the final report is byte-identical to
// what an uninterrupted sweep would have produced.
//
// The file is line-oriented: a "spear-journal/2" header line, then one
// "2 <len> <crc32c> <json>" frame per record — the JSON payload is
// length-framed and checksummed (CRC32-Castagnoli), so torn tails, bit
// flips, and any other media damage are detected per record. Damage is
// contained, never fatal: a malformed final line is a torn append and is
// dropped, any other damaged line is quarantined — skipped by the
// lenient reader, and moved to a ".quarantine" sidecar by Repair, the
// one recovery pass a resume makes, so the store self-heals while
// preserving the evidence. All I/O goes through an internal/iofault
// filesystem, so every failure mode the package claims to survive is
// injectable and deterministic in tests.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"spear/internal/iofault"
	"spear/internal/perf"
)

// FileName is the journal file inside the journal directory.
const FileName = "journal.jsonl"

// Status is the lifecycle state a record asserts for its run.
type Status string

const (
	// StatusStarted is appended before a run executes; without a later
	// terminal record the run was in flight when the process died.
	StatusStarted Status = "started"
	// StatusDone carries the serialized result of a completed run.
	StatusDone Status = "done"
	// StatusFailed carries the error of a run that failed.
	StatusFailed Status = "failed"
	// StatusSkipped records a typed skip without a result. Only older
	// builds, whose circuit breaker abandoned runs, write it; it still
	// replays.
	StatusSkipped Status = "skipped"
)

// Terminal reports whether the status finishes its run; a key whose last
// record is terminal is never re-executed on resume.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusSkipped
}

func (s Status) known() bool {
	return s == StatusStarted || s.Terminal()
}

// Record is one journal line.
type Record struct {
	Status Status `json:"status"`
	Key    string `json:"key"`
	Kernel string `json:"kernel,omitempty"`
	Config string `json:"config,omitempty"`
	// Attempts is how many attempts the run consumed (terminal records);
	// always 1 from current writers.
	Attempts int `json:"attempts,omitempty"`
	// Error is the failure message (failed records).
	Error string `json:"error,omitempty"`
	// Skip is the typed skip reason (skipped records).
	Skip string `json:"skip,omitempty"`
	// Result is the serialized simulation result (done records), kept
	// opaque here so the journal does not depend on the simulator types.
	Result json.RawMessage `json:"result,omitempty"`
	// T is the wall-clock append time (Unix nanoseconds), stamped by
	// Append when zero. Pairing a key's started and terminal stamps gives
	// per-run durations; Replay aggregates them for progress/ETA views.
	// Absent from records written by older builds, which replay fine —
	// the aggregates just stay empty.
	T int64 `json:"t,omitempty"`
}

// ErrBadRecord marks a malformed interior journal record (real
// corruption, as opposed to a torn final line from a crash mid-write).
var ErrBadRecord = errors.New("journal: malformed record")

// reportKeyPrefix reserves a key namespace for whole-request report
// records: the report store (internal/store) appends the
// final assembled report of a finished sweep as one more journal record,
// keyed "report/<request key>", so the report rides the same CRC-framed,
// fsync'd, quarantine-on-corruption machinery as every run record. Run
// keys are hex content hashes and can never collide with the prefix.
const reportKeyPrefix = "report/"

// ReportKey derives the journal key under which a request's completed
// report is stored (see internal/store).
func ReportKey(requestKey string) string { return reportKeyPrefix + requestKey }

// IsReportKey reports whether key names a stored report rather than a
// run. Progress summaries and fsck run-state counts exclude report
// records — they describe the sweep's runs, not its cached artifact.
func IsReportKey(key string) bool { return strings.HasPrefix(key, reportKeyPrefix) }

func (r Record) validate() error {
	if !r.Status.known() {
		return fmt.Errorf("%w: unknown status %q", ErrBadRecord, r.Status)
	}
	if r.Key == "" {
		return fmt.Errorf("%w: empty key", ErrBadRecord)
	}
	return nil
}

// Hash derives a journal key: a short hex content hash over the given
// canonical description parts. Parts are length-delimited so that no two
// distinct part lists collide by concatenation.
func Hash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		_, _ = io.WriteString(h, p) // hash.Hash never errors
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Config tunes a Writer's durability machinery. The zero value selects
// the real filesystem and production defaults.
type Config struct {
	// FS is the filesystem the journal lives on (nil = the real one).
	// Tests substitute an iofault.Faulty to inject I/O failures.
	FS iofault.FS
	// CommitRetries is the total number of attempts an append makes to
	// write and fsync its record before failing (default 3). Between
	// attempts the file is truncated back to the last durable offset, so
	// a torn write from a failed attempt never leaks into the journal.
	CommitRetries int
	// NospcBackoff is the pause before retrying a commit that failed
	// with ENOSPC, giving the operator (or a log rotator) a chance to
	// free space (default 50ms).
	NospcBackoff time.Duration
	// Perf, when non-nil, receives journal I/O metrics: journal.commits,
	// journal.bytes, journal.write.ns (write+sync wall time),
	// journal.fsync.ns (the sync alone), and the recoveries
	// journal.commit_retries and journal.enospc_backoffs. Nil costs
	// nothing.
	Perf *perf.Registry
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = iofault.OS()
	}
	if c.CommitRetries <= 0 {
		c.CommitRetries = 3
	}
	if c.NospcBackoff <= 0 {
		c.NospcBackoff = 50 * time.Millisecond
	}
	return c
}

// Writer appends records to the journal file, fsync'ing each one so that
// a record returned from Append survives any subsequent crash.
//
// Append is safe for concurrent use: each call makes its own record
// durable under one mutex, so records from concurrent runs land in
// whatever order their appends take the lock. Replay keys records by
// content hash, so journal order never matters for resume.
//
// Failed commits are retried: the file is truncated back to the last
// durable offset (undoing any torn write), ENOSPC waits out a backoff,
// and each recovery is counted in Config.Perf so degraded storage is
// visible in the metrics.
type Writer struct {
	mu     sync.Mutex // guards closed, f and off
	closed bool

	cfg Config
	f   iofault.File
	off int64 // bytes known durably committed; failed commits truncate back to it

	// Perf counter handles, resolved once at open; nil (no-op) without
	// Config.Perf.
	cCommits, cBytes, cWriteNs, cFsyncNs *perf.Counter
	cRetries, cBackoffs                  *perf.Counter
}

// Open opens (creating the directory if needed) the journal in dir for
// appending, on the real filesystem with default durability settings.
func Open(dir string, truncate bool) (*Writer, error) {
	return OpenConfig(dir, truncate, Config{})
}

// OpenConfig opens the journal in dir for appending. With truncate, any
// existing journal is discarded first — the caller is starting a fresh
// sweep rather than resuming one. When resuming, a torn tail left by a
// crash mid-append is trimmed so that new records never concatenate onto
// torn garbage (interior corruption is left for Repair). A fresh journal
// starts with the spear-journal/2 header, and the parent directory is
// fsync'd after create so the file itself — not just its records —
// survives a crash.
func OpenConfig(dir string, truncate bool, cfg Config) (*Writer, error) {
	cfg = cfg.withDefaults()
	if !truncate {
		if err := trimTornTail(cfg.FS, filepath.Join(dir, FileName)); err != nil {
			return nil, err
		}
	}
	return open(dir, truncate, cfg)
}

// Resume repairs the journal in dir (see Repair), opens it for appending
// and returns the replayed state of the intact records. It reads the
// journal once: the repair pass already knows where the last complete
// line ends, so the bytes after it are trimmed without OpenConfig's
// second read.
func Resume(dir string, cfg Config) (*State, *Writer, error) {
	cfg = cfg.withDefaults()
	sr, err := repair(cfg.FS, dir)
	if err != nil {
		return nil, nil, err
	}
	if sr != nil && sr.tail > 0 {
		if err := cfg.FS.Truncate(filepath.Join(dir, FileName), sr.size-sr.tail); err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
	}
	w, err := open(dir, false, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sr.replay(), w, nil
}

// open creates dir if needed and opens the journal in it, which (unless
// truncate) ends on a line boundary.
func open(dir string, truncate bool, cfg Config) (*Writer, error) {
	fsys := cfg.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	fresh := truncate
	if _, err := fsys.Stat(path); errors.Is(err, fs.ErrNotExist) {
		fresh = true
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{cfg: cfg, f: f}
	w.cCommits = cfg.Perf.Counter("journal.commits")
	w.cBytes = cfg.Perf.Counter("journal.bytes")
	w.cWriteNs = cfg.Perf.Counter("journal.write.ns")
	w.cFsyncNs = cfg.Perf.Counter("journal.fsync.ns")
	w.cRetries = cfg.Perf.Counter("journal.commit_retries")
	w.cBackoffs = cfg.Perf.Counter("journal.enospc_backoffs")
	if fresh {
		if err := w.commitBytes([]byte(Header + "\n")); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: writing header: %w", err)
		}
	} else {
		st, err := fsys.Stat(path)
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		w.off = st.Size()
	}
	// Per-record fsyncs are worthless if a crash right after create can
	// lose the whole file: make the directory entry durable too.
	if err := fsys.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: fsync parent dir: %w", err)
	}
	return w, nil
}

// commitBytes makes buf durable at the end of the journal, retrying
// recoverable failures. Every retry first truncates the file back to the
// last durable offset, so a torn write from the failed attempt can never
// surface as journal content; ENOSPC additionally waits out the
// configured backoff. On success the durable offset advances.
func (w *Writer) commitBytes(buf []byte) error {
	var err error
	for attempt := 1; attempt <= w.cfg.CommitRetries; attempt++ {
		if attempt > 1 {
			if errors.Is(err, syscall.ENOSPC) {
				w.cBackoffs.Add(1)
				time.Sleep(w.cfg.NospcBackoff)
			} else {
				w.cRetries.Add(1)
			}
			if terr := w.f.Truncate(w.off); terr != nil {
				// Even the undo failed; never write on top of a torn tail —
				// burn the attempt and retry the whole recovery.
				err = terr
				continue
			}
		}
		writeStart := perf.Now()
		_, werr := w.f.Write(buf)
		if werr == nil {
			syncStart := perf.Now()
			werr = w.f.Sync()
			w.cFsyncNs.Add(uint64(perf.Now() - syncStart))
		}
		w.cWriteNs.Add(uint64(perf.Now() - writeStart))
		if werr == nil {
			w.off += int64(len(buf))
			w.cCommits.Add(1)
			w.cBytes.Add(uint64(len(buf)))
			return nil
		}
		err = werr
	}
	// Out of retries: scrub any torn bytes the final attempt left behind
	// so the on-disk journal stays parseable (best effort — the reader
	// tolerates a torn tail regardless).
	_ = w.f.Truncate(w.off)
	return err
}

// trimTornTail truncates any bytes after the last newline: under the
// one-Write-per-line discipline they can only be a torn final append.
func trimTornTail(fsys iofault.FS, path string) error {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	cut := bytes.LastIndexByte(data, '\n') + 1
	if cut == len(data) {
		return nil
	}
	if err := fsys.Truncate(path, int64(cut)); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// ErrClosed marks an append against a writer that was already closed.
var ErrClosed = errors.New("journal: writer closed")

// Append writes one record and returns once it is durable (written and
// fsync'd). Append is safe for concurrent use.
func (w *Writer) Append(rec Record) error {
	if err := rec.validate(); err != nil {
		return err
	}
	if rec.T == 0 {
		rec.T = time.Now().UnixNano()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line := frame(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.commitBytes(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close closes the underlying file. Close is idempotent; appends after
// Close fail with ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// State is the replayed journal: what resume needs to know per key.
type State struct {
	// Terminal maps each key to its last done/failed/skipped record;
	// these runs are not re-executed on resume.
	Terminal map[string]Record
	// InFlight maps keys whose last record is "started": the process died
	// (or was killed) while they ran, so resume re-executes them.
	InFlight map[string]Record
	// Torn records that the final journal line was torn by a crash (from
	// Repair: that it trimmed the torn line).
	Torn bool
	// Quarantined counts corrupt records the lenient loader skipped (from
	// Repair: the records it moved to the sidecar); their runs simply
	// re-execute.
	Quarantined int

	// Timing aggregates from Record.T stamps (all Unix nanoseconds; zero
	// when no record carried a stamp). FirstStart/LastEvent bound the
	// sweep's observed activity; DoneDurations holds the started→done
	// interval of every completed run, the raw material for throughput
	// and ETA estimates in progress views.
	FirstStart    int64
	LastEvent     int64
	DoneDurations []int64
}

// Replay folds a record sequence into resume state.
func Replay(recs []Record, torn bool) *State {
	st := &State{
		Terminal: make(map[string]Record),
		InFlight: make(map[string]Record),
		Torn:     torn,
	}
	starts := make(map[string]int64)
	for _, rec := range recs {
		if rec.T != 0 {
			if st.FirstStart == 0 || rec.T < st.FirstStart {
				st.FirstStart = rec.T
			}
			if rec.T > st.LastEvent {
				st.LastEvent = rec.T
			}
		}
		if rec.Status.Terminal() {
			if t0 := starts[rec.Key]; t0 != 0 && rec.T > t0 && rec.Status == StatusDone {
				st.DoneDurations = append(st.DoneDurations, rec.T-t0)
			}
			st.Terminal[rec.Key] = rec
			delete(st.InFlight, rec.Key)
		} else {
			starts[rec.Key] = rec.T
			st.InFlight[rec.Key] = rec
		}
	}
	return st
}

// Load reads and replays the journal in dir on the real filesystem.
func Load(dir string) (*State, error) {
	return LoadFS(iofault.OS(), dir)
}

// LoadFS reads and replays the journal in dir. A missing journal file
// yields an empty state: resuming a sweep that never started is a no-op.
// Loading is lenient: corrupt records are skipped (and counted in
// State.Quarantined), never fatal — a damaged store is degraded, not
// lost.
func LoadFS(fsys iofault.FS, dir string) (*State, error) {
	sr, err := scanFile(fsys, dir)
	if err != nil {
		return nil, err
	}
	return sr.replay(), nil
}

// scanFile reads and scans the journal in dir; a missing file yields a
// nil result and no error.
func scanFile(fsys iofault.FS, dir string) (*ScanResult, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sr := scan(data)
	sr.size = int64(len(data))
	sr.tail = sr.size - int64(bytes.LastIndexByte(data, '\n')+1)
	return sr, nil
}

// replay folds the scanned records into resume state, counting the
// damaged interior lines as quarantined. A nil result (no journal file)
// replays to the empty state.
func (sr *ScanResult) replay() *State {
	if sr == nil {
		return Replay(nil, false)
	}
	st := Replay(sr.Recs, sr.Torn)
	st.Quarantined = len(sr.Bad)
	return st
}
