// Package store is the durable completed-report index behind the sweep
// service: the piece that makes every report the cluster ever computed a
// cache hit across process restarts.
//
// PR 8's speard journals each job's runs under <data>/<key>.journal and
// recovers in-flight work after a crash, but a restart forgot every
// *finished* job: the done report lived only in process memory, so a
// resubmission re-opened the journal and re-assembled the report from
// run records (cheap, but a whole admission + sweep cycle for work that
// was already complete). The index closes that gap. When a job finishes,
// the scheduler appends the final assembled report to the job's own
// journal as one more record — CRC-framed, fsync'd, keyed in the
// reserved "report/<request key>" namespace (journal.ReportKey) — and on
// startup the index scans every <key>.journal directory, replays it with
// the same lenient loader resume uses, and indexes each intact report
// record. A request whose key is indexed is served straight from disk
// with zero re-execution and zero admission.
//
// Integrity is inherited, not reinvented: report records ride the
// spear-journal/2 framing, so a bit flip, splice, or truncation fails
// the per-record CRC32C, journal.Scan classifies the line as damage, and
// the index quarantines it (journal.Repair moves it to the sidecar) and
// reports a miss — a damaged report re-executes, it is never served.
// Damage on the journal's *final* line is indistinguishable from a torn
// append and is trimmed rather than quarantined, per the journal's
// damage taxonomy; either way the report is a miss. Every Get
// re-verifies the record on disk at serve time, so corruption that
// lands between scans is caught too.
//
// Entries never expire: a report is a pure function of its request key,
// so a stored one can never go stale.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/perf"
)

// DirSuffix is the suffix of per-request journal directories inside the
// data dir ("<request key>.journal", matching sched.Scheduler's layout).
const DirSuffix = ".journal"

// Typed lookup outcomes. Callers treat any error as "not served from
// the index"; the type says why, and whether re-execution is expected.
var (
	// ErrNotFound: the key has no stored report (never finished here, or
	// its report record was quarantined by an earlier scan).
	ErrNotFound = errors.New("store: no stored report for key")
	// ErrDamaged: a report record exists but failed its integrity check;
	// it was quarantined, not served. The caller re-executes.
	ErrDamaged = errors.New("store: report record damaged; quarantined, not served")
)

// Config tunes an Index. Dir is required; everything else has working
// zero values.
type Config struct {
	// Dir is the data directory holding one <key>.journal per request.
	Dir string
	// FS is the filesystem the journals live on (nil = the real one).
	FS iofault.FS
	// Perf receives index metrics: store.hits, store.misses, store.puts,
	// store.quarantined, store.entries.
	Perf *perf.Registry
	// Log receives one line per quarantine or dropped entry.
	Log io.Writer
}

// Entry describes one indexed report.
type Entry struct {
	// Key is the request content hash the report answers.
	Key string `json:"key"`
	// Dir is the journal directory holding the report record.
	Dir string `json:"dir"`
	// Completed is when the sweep finished (the report record's stamp).
	Completed time.Time `json:"completed"`
	// Bytes is the stored report payload size.
	Bytes int `json:"bytes"`
}

// Index is the in-memory map over the on-disk report records. It holds
// only metadata — report bytes stay on disk and are re-read (and
// re-verified) per Get — so memory is bounded by entry count, not report
// size. Safe for concurrent use.
type Index struct {
	cfg Config
	fs  iofault.FS

	mu      sync.Mutex
	entries map[string]Entry

	cHits, cMisses, cPuts, cQuarantined *perf.Counter
	gEntries                            *perf.Gauge
}

// Open scans cfg.Dir for <key>.journal directories, indexes every intact
// report record, and quarantines damaged ones. A missing data dir
// yields an empty, usable index.
func Open(cfg Config) (*Index, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	ix := &Index{
		cfg:     cfg,
		fs:      cfg.FS,
		entries: map[string]Entry{},
	}
	if ix.fs == nil {
		ix.fs = iofault.OS()
	}
	ix.cHits = cfg.Perf.Counter("store.hits")
	ix.cMisses = cfg.Perf.Counter("store.misses")
	ix.cPuts = cfg.Perf.Counter("store.puts")
	ix.cQuarantined = cfg.Perf.Counter("store.quarantined")
	ix.gEntries = cfg.Perf.Gauge("store.entries")

	names, err := os.ReadDir(cfg.Dir)
	if errors.Is(err, os.ErrNotExist) {
		return ix, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if !de.IsDir() || !strings.HasSuffix(de.Name(), DirSuffix) {
			continue
		}
		key := strings.TrimSuffix(de.Name(), DirSuffix)
		payload, rec, err := ix.scanDir(key)
		if err != nil {
			// Damaged or report-less: not indexed; the journal (if any)
			// still resumes through the normal admission path.
			continue
		}
		ix.entries[key] = Entry{
			Key:       key,
			Dir:       ix.dir(key),
			Completed: time.Unix(0, rec.T),
			Bytes:     len(payload),
		}
	}
	ix.gEntries.Set(float64(len(ix.entries)))
	return ix, nil
}

func (ix *Index) dir(key string) string {
	return filepath.Join(ix.cfg.Dir, key+DirSuffix)
}

func (ix *Index) logf(format string, args ...any) {
	if ix.cfg.Log != nil {
		fmt.Fprintf(ix.cfg.Log, format+"\n", args...)
	}
}

// scanDir loads key's journal leniently, self-heals damage (corrupt
// records — including a damaged report record — move to the quarantine
// sidecar), and returns the intact report payload. ErrNotFound when the
// journal carries no intact report record; ErrDamaged when records were
// quarantined and no intact report survived them.
func (ix *Index) scanDir(key string) ([]byte, journal.Record, error) {
	dir := ix.dir(key)
	repair, err := journal.Repair(ix.fs, dir)
	if err != nil {
		return nil, journal.Record{}, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	if repair.Quarantined > 0 {
		ix.cQuarantined.Add(uint64(repair.Quarantined))
		ix.logf("store: %s: %d corrupt record(s) quarantined to %s", shortKey(key), repair.Quarantined, journal.QuarantineName)
	}
	st, err := journal.LoadFS(ix.fs, dir)
	if err != nil {
		return nil, journal.Record{}, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	rec, ok := st.Terminal[journal.ReportKey(key)]
	if !ok {
		if repair.Quarantined > 0 {
			return nil, journal.Record{}, ErrDamaged
		}
		return nil, journal.Record{}, ErrNotFound
	}
	payload, err := decodeReport(rec)
	if err != nil {
		return nil, journal.Record{}, err
	}
	return payload, rec, nil
}

// Report payloads are stored as a JSON string (base64 under the hood)
// rather than embedded raw JSON: json.Marshal would re-compact an
// embedded json.RawMessage, and the index's whole point is serving the
// *exact* bytes the sweep wrote — whitespace, trailing newline, and all.
func encodeReport(report []byte) (json.RawMessage, error) {
	return json.Marshal(report)
}

func decodeReport(rec journal.Record) ([]byte, error) {
	if rec.Status != journal.StatusDone || len(rec.Result) == 0 {
		return nil, ErrDamaged
	}
	var payload []byte
	if err := json.Unmarshal(rec.Result, &payload); err != nil || len(payload) == 0 {
		return nil, ErrDamaged
	}
	return payload, nil
}

// Get returns the stored report bytes for key, re-verifying the record
// on disk (the journal's CRC framing catches damage that landed since
// the last scan). On damage the record is quarantined and Get reports
// ErrDamaged. The bytes are exactly what Put stored — the report a
// cache hit serves is byte-identical to the one the sweep produced.
func (ix *Index) Get(key string) ([]byte, Entry, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e, ok := ix.entries[key]
	if !ok {
		ix.cMisses.Add(1)
		return nil, Entry{}, ErrNotFound
	}
	payload, _, err := ix.scanDir(key)
	if err != nil {
		// The disk no longer backs the entry: drop it so the next
		// submission re-executes rather than looping through misses.
		delete(ix.entries, key)
		ix.gEntries.Set(float64(len(ix.entries)))
		ix.cMisses.Add(1)
		ix.logf("store: entry %s unservable (%v); dropped from index", shortKey(key), err)
		return nil, Entry{}, err
	}
	ix.cHits.Add(1)
	return payload, e, nil
}

// Put durably stores a completed report for key: one fsync'd,
// CRC-framed record appended to the request's own journal directory
// (created if the job ran un-journaled). completed stamps the entry;
// the zero time means now.
func (ix *Index) Put(key string, report []byte, completed time.Time) error {
	if len(report) == 0 {
		return errors.New("store: refusing to store an empty report")
	}
	if completed.IsZero() {
		completed = time.Now()
	}
	encoded, err := encodeReport(report)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w, err := journal.OpenConfig(ix.dir(key), false, journal.Config{FS: ix.fs, Perf: ix.cfg.Perf})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	aerr := w.Append(journal.Record{
		Status: journal.StatusDone,
		Key:    journal.ReportKey(key),
		Result: encoded,
		T:      completed.UnixNano(),
	})
	cerr := w.Close()
	if aerr != nil {
		return fmt.Errorf("store: %w", aerr)
	}
	if cerr != nil {
		return fmt.Errorf("store: %w", cerr)
	}
	ix.mu.Lock()
	ix.entries[key] = Entry{Key: key, Dir: ix.dir(key), Completed: completed, Bytes: len(report)}
	ix.gEntries.Set(float64(len(ix.entries)))
	ix.mu.Unlock()
	ix.cPuts.Add(1)
	return nil
}

// Len is the number of indexed reports.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.entries)
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
