package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// Record framing. The journal is line-oriented: a fresh journal starts
// with the Header line, and every record is one v2 frame,
// `2 <len> <crc32c> <payload>` — the JSON payload length-framed in
// decimal and checksummed with CRC32-Castagnoli (8 hex digits), so
// truncation, bit flips, and spliced garbage are all detected per record
// instead of silently replaying wrong results. Any other line, a bare
// JSON object included, is damage.

// Header is the first line of a freshly created journal file.
const Header = "spear-journal/2"

// castagnoli is the CRC32C polynomial table (the checksum used by
// iSCSI, ext4 metadata, and most storage formats — chosen here for the
// same reason: strong burst-error detection).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame encodes one marshalled record as a v2 journal line.
func frame(payload []byte) []byte {
	crc := crc32.Checksum(payload, castagnoli)
	out := make([]byte, 0, len(payload)+24)
	out = append(out, '2', ' ')
	out = strconv.AppendInt(out, int64(len(payload)), 10)
	out = append(out, ' ')
	out = appendHex8(out, crc)
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

func appendHex8(b []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

// parseFrame decodes a v2 line (without trailing newline) into its
// payload, verifying the length framing and the checksum.
func parseFrame(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(line, []byte("2 "))
	if !ok {
		return nil, fmt.Errorf("not a v2 frame")
	}
	lenField, rest, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return nil, fmt.Errorf("v2 frame missing length")
	}
	n, err := strconv.Atoi(string(lenField))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("v2 frame bad length %q", lenField)
	}
	crcField, payload, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return nil, fmt.Errorf("v2 frame missing checksum")
	}
	want, err := strconv.ParseUint(string(crcField), 16, 32)
	if err != nil || len(crcField) != 8 {
		return nil, fmt.Errorf("v2 frame bad checksum field %q", crcField)
	}
	if len(payload) != n {
		return nil, fmt.Errorf("v2 frame length %d, payload %d bytes (truncated or spliced)", n, len(payload))
	}
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("v2 frame checksum %08x, want %08x (corrupt record)", got, want)
	}
	return payload, nil
}

// parseLine decodes one record line (no newline).
func parseLine(line []byte) (rec Record, err error) {
	if !bytes.HasPrefix(line, []byte("2 ")) {
		return Record{}, fmt.Errorf("%w: unrecognized line format", ErrBadRecord)
	}
	payload, err := parseFrame(line)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if err := rec.validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Quarantined is one journal line that failed integrity or validity
// checks somewhere other than the torn tail: real corruption, preserved
// verbatim for the sidecar and for fsck reporting.
type Quarantined struct {
	// Line is the 1-based line number in the journal file.
	Line int
	// Data is the raw damaged line, without its newline.
	Data []byte
	// Err is why the line was rejected (wraps ErrBadRecord).
	Err error
}

// ScanResult is everything one pass over a journal stream finds.
type ScanResult struct {
	// Recs are the intact records, in file order.
	Recs []Record
	// Raw holds each intact record's original line (no newline), aligned
	// with Recs — Repair rewrites the journal from these so a rewrite
	// never re-encodes (and risks altering) surviving data.
	Raw [][]byte
	// Bad are the damaged interior lines (quarantine candidates).
	Bad []Quarantined
	// Torn reports a damaged final line: the signature of a crash
	// mid-append, dropped rather than quarantined.
	Torn bool

	// size is the scanned file's length and tail the number of its bytes
	// after the last newline (set by scanFile; 0 after a rewrite).
	size, tail int64
}

// Scan reads every line of a journal stream, classifying each as an
// intact record, interior corruption, or a torn tail. Scan itself fails
// only on reader errors: damage is data, not an error.
func Scan(r io.Reader) (*ScanResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return scan(data), nil
}

// scan is Scan over bytes already in memory.
func scan(data []byte) *ScanResult {
	sr := &ScanResult{}
	lines := bytes.Split(data, []byte("\n"))
	last := lastContentLine(lines)
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || bytes.Equal(line, []byte(Header)) {
			continue
		}
		rec, perr := parseLine(line)
		if perr != nil {
			if i == last {
				// Torn tail: the crash interrupted the final append.
				sr.Torn = true
				continue
			}
			sr.Bad = append(sr.Bad, Quarantined{Line: i + 1, Data: append([]byte(nil), line...), Err: perr})
			continue
		}
		sr.Recs = append(sr.Recs, rec)
		sr.Raw = append(sr.Raw, append([]byte(nil), line...))
	}
	return sr
}

// lastContentLine returns the index of the final non-blank line.
func lastContentLine(lines [][]byte) int {
	for i := len(lines) - 1; i >= 0; i-- {
		if len(bytes.TrimSpace(lines[i])) > 0 {
			return i
		}
	}
	return -1
}
