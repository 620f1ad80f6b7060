// Package store serves finished sweep reports from the job journals that
// produced them: the piece that makes every report the cluster ever
// computed a cache hit across process restarts.
//
// speard journals each job's runs under <data>/<key>.journal. When a job
// finishes, the scheduler appends the final assembled report to that
// same journal as one more record — CRC-framed, fsync'd, keyed in the
// reserved "report/<request key>" namespace (journal.ReportKey). The
// directory is named by the request key, so the journal *is* the record
// that the job finished: Get reads <data>/<key>.journal with the same
// one-pass journal.Repair resume uses, and a request whose journal
// holds an intact report is served straight from disk with zero
// re-execution and zero admission. Nothing is kept in memory and Open
// reads no journal, so startup cost does not grow with stored jobs.
//
// Integrity is inherited, not reinvented: report records ride the
// spear-journal/2 framing, so a bit flip, splice, or truncation fails
// the per-record CRC32C, journal.Scan classifies the line as damage, and
// Get quarantines it (journal.Repair moves it to the sidecar) and
// reports a miss — a damaged report re-executes, it is never served.
// Damage on the journal's *final* line is indistinguishable from a torn
// append and is trimmed rather than quarantined, per the journal's
// damage taxonomy; either way the report is a miss.
//
// Reports never expire: a report is a pure function of its request key,
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
	"time"

	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/perf"
)

// DirSuffix is the suffix of per-request journal directories inside the
// data dir ("<request key>.journal", matching sched.Scheduler's layout).
const DirSuffix = ".journal"

// Typed lookup outcomes. Callers treat any error as "not served from
// the store"; the type says why, and whether re-execution is expected.
var (
	// ErrNotFound: the key has no stored report (never finished here, or
	// its report record was quarantined by an earlier Get or resume).
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
	// Perf receives store metrics: store.hits, store.misses, store.puts,
	// store.quarantined.
	Perf *perf.Registry
	// Log receives one line per quarantine.
	Log io.Writer
}

// Index reads and writes report records in the data dir's job journals.
// It holds no state of its own: report bytes stay on disk and are
// re-read (and re-verified) per Get. Get repairs the journal it reads,
// so calls for one key must not overlap each other or a writer of that
// key's journal; the scheduler serializes them under its own lock.
type Index struct {
	cfg Config
	fs  iofault.FS

	cHits, cMisses, cPuts, cQuarantined *perf.Counter
}

// Open returns an Index over cfg.Dir. It reads no journal: a missing or
// empty data dir yields a usable, empty store.
func Open(cfg Config) (*Index, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	ix := &Index{cfg: cfg, fs: cfg.FS}
	if ix.fs == nil {
		ix.fs = iofault.OS()
	}
	ix.cHits = cfg.Perf.Counter("store.hits")
	ix.cMisses = cfg.Perf.Counter("store.misses")
	ix.cPuts = cfg.Perf.Counter("store.puts")
	ix.cQuarantined = cfg.Perf.Counter("store.quarantined")
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

// scanDir repairs and replays key's journal in one pass (corrupt records
// — including a damaged report record — move to the quarantine sidecar)
// and returns the intact report payload. ErrNotFound when the
// journal carries no intact report record; ErrDamaged when records were
// quarantined and no intact report survived them.
func (ix *Index) scanDir(key string) ([]byte, journal.Record, error) {
	st, err := journal.Repair(ix.fs, ix.dir(key))
	if err != nil {
		return nil, journal.Record{}, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	if st.Quarantined > 0 {
		ix.cQuarantined.Add(uint64(st.Quarantined))
		ix.logf("store: %s: %d corrupt record(s) quarantined to %s", shortKey(key), st.Quarantined, journal.QuarantineName)
	}
	rec, ok := st.Terminal[journal.ReportKey(key)]
	if !ok {
		if st.Quarantined > 0 {
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
// embedded json.RawMessage, and the store's whole point is serving the
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

// Get returns the stored report bytes for key and the report record's
// completion stamp, re-verifying the record on disk (the journal's CRC
// framing catches damage). On damage the record is quarantined and Get
// reports ErrDamaged. The bytes are exactly what Put stored — the report
// a cache hit serves is byte-identical to the one the sweep produced.
func (ix *Index) Get(key string) ([]byte, time.Time, error) {
	payload, rec, err := ix.scanDir(key)
	if err != nil {
		ix.cMisses.Add(1)
		return nil, time.Time{}, err
	}
	ix.cHits.Add(1)
	return payload, time.Unix(0, rec.T), nil
}

// Put durably stores a completed report for key: one fsync'd,
// CRC-framed record appended to the request's own journal directory
// (created if the job ran un-journaled). completed stamps the record;
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
	ix.cPuts.Add(1)
	return nil
}

// Len counts the journals in the data dir that hold an intact report
// record. It only reads — no journal is repaired — and walks the whole
// data dir, so it is for tests and benchmarks, not the serving path.
func (ix *Index) Len() int {
	names, _ := os.ReadDir(ix.cfg.Dir)
	n := 0
	for _, de := range names {
		key, ok := strings.CutSuffix(de.Name(), DirSuffix)
		if !ok || !de.IsDir() {
			continue
		}
		st, err := journal.LoadFS(ix.fs, ix.dir(key))
		if err != nil {
			continue
		}
		if rec, ok := st.Terminal[journal.ReportKey(key)]; ok {
			if _, err := decodeReport(rec); err == nil {
				n++
			}
		}
	}
	return n
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
