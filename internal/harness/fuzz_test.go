package harness

import (
	"bytes"
	"testing"
)

// FuzzReadReport drives the report decoder with arbitrary bytes: it must
// never panic, must fail only with typed errors, and any report it does
// accept must survive re-serialization and every report view.
func FuzzReadReport(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"spear-report/1","machines":[],"kernels":[],"rows":[]}`))
	f.Add([]byte(`{"schema":"spear-report/2","interrupted":true,"rows":[{"kernel":"k","skipped":"x"}]}`))
	f.Add([]byte(`{"schema":"spear-report/1","kernels":["k"],"rows":[{"kernel":"k","config":"baseline"}]}`))
	f.Add([]byte(`{"schema":"other/9"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			if rep != nil {
				t.Errorf("non-nil report alongside error %v", err)
			}
			return
		}
		if rep.Schema != ReportSchema && rep.Schema != ReportSchemaV2 {
			t.Errorf("accepted unknown schema %q", rep.Schema)
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Errorf("accepted report does not re-serialize: %v", err)
		}
		var csv bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			t.Errorf("accepted report does not serialize to CSV: %v", err)
		}
		// Every view must degrade to error rows, not panic, on sparse or
		// skip-laden reports.
		for _, v := range Views() {
			v.Render(rep)
		}
	})
}
