package journal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode asserts the journal reader never panics on arbitrary bytes
// and never fails: whatever a crash, a partial disk write, or a hostile
// file puts in the journal, Scan classifies every line as an intact
// record, interior damage wrapping ErrBadRecord, or a torn tail — and
// every intact record validates and re-parses from the raw line Repair
// would keep.
func FuzzDecode(f *testing.F) {
	// Bare-JSON seeds: no frame, so every such line is damage.
	f.Add([]byte(`{"status":"started","key":"a"}` + "\n"))
	f.Add([]byte(`{"status":"done","key":"a","attempts":2,"result":{"Cycles":1}}` + "\n"))
	f.Add([]byte(`{"status":"started","key":"a"}` + "\n" + `{"status":"done","ke`))
	f.Add([]byte("garbage\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	// Framed seeds: header, intact frames, damaged length/checksum/payload
	// fields, truncated frames, and frames mixed with bare JSON.
	f.Add([]byte(Header + "\n"))
	f.Add(frame([]byte(`{"status":"started","key":"a"}`)))
	f.Add([]byte(Header + "\n" + string(frame([]byte(`{"status":"done","key":"a","result":{"Cycles":1}}`)))))
	f.Add([]byte(`{"status":"started","key":"bare"}` + "\n" + string(frame([]byte(`{"status":"done","key":"framed"}`)))))
	f.Add([]byte("2 30 00000000 {\"status\":\"started\",\"key\":\"a\"}\n")) // wrong checksum
	f.Add([]byte("2 999 deadbeef {\"status\":\"started\"}\n"))              // wrong length
	f.Add([]byte("2 -1 deadbeef x\n"))
	f.Add(frame([]byte(`{"status":"started","key":"a"}`))[:20]) // torn frame
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := Scan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Scan failed on fuzz input: %v", err)
		}
		if len(sr.Raw) != len(sr.Recs) {
			t.Fatalf("Scan Raw/Recs misaligned: %d vs %d", len(sr.Raw), len(sr.Recs))
		}
		for i, r := range sr.Recs {
			if verr := r.validate(); verr != nil {
				t.Errorf("Scan produced invalid record %+v: %v", r, verr)
			}
			again, perr := parseLine(sr.Raw[i])
			if perr != nil || again.Key != r.Key || again.Status != r.Status {
				t.Errorf("raw line %q does not re-parse to %+v: %+v, %v", sr.Raw[i], r, again, perr)
			}
		}
		for _, b := range sr.Bad {
			if !errors.Is(b.Err, ErrBadRecord) || len(b.Data) == 0 {
				t.Errorf("quarantined line without typed error or data: %+v", b)
			}
		}
		Replay(sr.Recs, sr.Torn)
	})
}
