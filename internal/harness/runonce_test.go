package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/cpu"
	"spear/internal/journal"
)

// TestRunOnceContract pins the run-once contract: a sweep simulates each
// (kernel, config) pair once, any run failure is an ordinary error row
// backed by a failed journal record of a single attempt, and only the
// caller's own cancellation leaves a run without a terminal record (so
// resume re-executes it).
func TestRunOnceContract(t *testing.T) {
	cases := []struct {
		name    string
		hookErr error         // returned by FaultHook on every run
		timeout time.Duration // Options.RunTimeout
		cancel  bool          // parent context cancelled before the sweep
		want    string        // error-row substring; "" = interrupted rows
	}{
		{name: "failing-hook", hookErr: errors.New("persistent failure"), want: "injected fault: persistent failure"},
		{name: "watchdog", timeout: time.Nanosecond, want: "watchdog"},
		{name: "cancelled-parent", cancel: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := parallelOptions()
			opts.RunTimeout = tc.timeout
			var mu sync.Mutex
			runs := map[string]int{}
			opts.FaultHook = func(kernel, config string) error {
				mu.Lock()
				runs[kernel+"/"+config]++
				mu.Unlock()
				return tc.hookErr
			}
			s := tinySuite(t, opts, "tiny")
			p := s.Prepared[0]
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}

			dir := t.TempDir()
			sj, err := OpenSweepJournal(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			rep := s.SweepReportContext(ctx, "sweep", twoConfigs(), sj)
			if err := sj.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := journal.Load(dir)
			if err != nil {
				t.Fatal(err)
			}

			if rep.Interrupted != tc.cancel {
				t.Errorf("Interrupted = %v, want %v", rep.Interrupted, tc.cancel)
			}
			wantSchema := ReportSchema
			if tc.cancel {
				wantSchema = ReportSchemaV2
			}
			if rep.Schema != wantSchema {
				t.Errorf("schema = %q, want %q", rep.Schema, wantSchema)
			}
			for _, cfg := range twoConfigs() {
				row := rep.Lookup("tiny", cfg.Name)
				rec, journaled := st.Terminal[s.runKey(p, cfg)]
				wantRuns := 1
				if tc.cancel {
					wantRuns = 0
					if row == nil || row.Skipped != SkipInterrupted {
						t.Errorf("%s: row %+v, want skipped as interrupted", cfg.Name, row)
					}
					if journaled {
						t.Errorf("%s: interrupted run has terminal record %+v", cfg.Name, rec)
					}
				} else {
					if row == nil || row.Result != nil || row.Skipped != "" || row.Attempts != 0 || !strings.Contains(row.Error, tc.want) {
						t.Errorf("%s: row %+v, want a plain error row containing %q", cfg.Name, row, tc.want)
					}
					if !journaled || rec.Status != journal.StatusFailed || rec.Attempts != 1 {
						t.Errorf("%s: terminal record %+v (present %v), want failed with attempts 1", cfg.Name, rec, journaled)
					}
				}
				if n := runs["tiny/"+cfg.Name]; n != wantRuns {
					t.Errorf("%s: executed %d times, want %d", cfg.Name, n, wantRuns)
				}
			}
		})
	}

	// A cancelled sweep journals no outcome: resuming it executes the
	// pair once, and from then on the journal serves it.
	t.Run("cancelled-then-live", func(t *testing.T) {
		opts := tinyOptions()
		hooks := 0
		opts.FaultHook = func(kernel, config string) error { hooks++; return nil }
		s := tinySuite(t, opts, "tiny")
		cfgs := []cpu.Config{cpu.BaselineConfig()}
		dir := t.TempDir()
		sweep := func(ctx context.Context, resume bool) *Report {
			t.Helper()
			sj, err := OpenSweepJournal(dir, resume)
			if err != nil {
				t.Fatal(err)
			}
			defer sj.Close()
			return s.SweepReportContext(ctx, "sweep", cfgs, sj)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if rep := sweep(ctx, false); rep.Rows[0].Skipped != SkipInterrupted {
			t.Fatalf("cancelled sweep: row %+v, want skipped as interrupted", rep.Rows[0])
		}
		for i := 0; i < 3; i++ {
			if rep := sweep(context.Background(), true); rep.Rows[0].Result == nil {
				t.Fatalf("resumed sweep %d: row %+v", i, rep.Rows[0])
			}
		}
		if hooks != 1 {
			t.Errorf("FaultHook ran %d times, want 1 (the first resume; later ones replay)", hooks)
		}
	})
}

// TestViewsOfInterruptedSweepMarkSkips pins that the figures read from a
// cancelled sweep mark the pairs it never finished as skipped by the
// interruption, not as failed runs, while finished kernels keep their
// rows.
func TestViewsOfInterruptedSweepMarkSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := tinyOptions()
	opts.FaultHook = func(kernel, config string) error {
		if kernel == "pointer" {
			cancel() // mcf's pairs have all run: the pool is serial, kernel-major
		}
		return nil
	}
	// Named after Figure 9 kernels so that every view reads both.
	rep := tinySuite(t, opts, "mcf", "pointer").SweepViews(ctx, "views", Views())
	if !rep.Interrupted {
		t.Fatal("cancelled sweep not marked interrupted")
	}
	check := func(view, kernel string, err error) {
		t.Helper()
		switch {
		case kernel == "mcf" && err != nil:
			t.Errorf("%s: finished kernel mcf reports %v", view, err)
		case kernel == "pointer" && (!errors.Is(err, ErrSkipped) || !strings.Contains(err.Error(), SkipInterrupted)):
			t.Errorf("%s: pointer reports %v, want an interrupted skip", view, err)
		}
	}
	fig6 := Figure6(rep)
	for _, r := range fig6 {
		check("fig6", r.Name, r.Err)
	}
	for _, r := range Table3(fig6) {
		check("table3", r.Name, r.Err)
	}
	for _, r := range Figure7(rep) {
		check("fig7", r.Name, r.Err)
	}
	for _, r := range Figure8(fig6) {
		check("fig8", r.Name, r.Err)
	}
	for _, r := range Figure9(rep) {
		check("fig9", r.Name, r.Err)
	}
	for _, r := range Motivation(rep) {
		check("motivation", r.Name, r.Err)
	}
	for _, r := range Hybrid(rep) {
		check("hybrid", r.Name, r.Err)
	}
	for _, v := range Views() {
		if text := v.Render(rep); !strings.Contains(text, SkipInterrupted) {
			t.Errorf("%s render does not show the interruption:\n%s", v.Name, text)
		}
	}
}

// TestResumeReplaysRetiredRecordKinds resumes a journal holding records
// that only older builds wrote — a done record of two attempts and a
// circuit-breaker skip — and checks they still replay into the report
// and its v2 wire format unchanged.
func TestResumeReplaysRetiredRecordKinds(t *testing.T) {
	opts := tinyOptions()
	executed := 0
	opts.FaultHook = func(kernel, config string) error { executed++; return nil }
	s := tinySuite(t, opts, "tiny")
	p := s.Prepared[0]
	base, spear := twoConfigs()[0], twoConfigs()[1]
	res, err := cpu.Run(p.Ref, base)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const reason = "circuit breaker tripped after 3 consecutive failures"
	dir := t.TempDir()
	lines := fmt.Sprintf(`{"status":"done","key":%q,"kernel":"tiny","config":%q,"attempts":2,"result":%s}
{"status":"skipped","key":%q,"kernel":"tiny","config":%q,"attempts":3,"skip":%q}
`, s.runKey(p, base), base.Name, resJSON, s.runKey(p, spear), spear.Name, reason)
	if err := os.WriteFile(filepath.Join(dir, journal.FileName), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	rep := s.SweepReportContext(context.Background(), "sweep", twoConfigs(), rj)
	if executed != 0 {
		t.Errorf("resume executed %d runs, want both replayed", executed)
	}
	if row := rep.Lookup("tiny", base.Name); row == nil || row.Result == nil || row.Attempts != 2 {
		t.Errorf("done record replayed as %+v, want a result with Attempts 2", row)
	}
	if row := rep.Lookup("tiny", spear.Name); row == nil || row.Skipped != reason || row.Error != "" {
		t.Errorf("skipped record replayed as %+v, want Skipped %q", row, reason)
	}
	if rep.Schema != ReportSchemaV2 || rep.Interrupted {
		t.Errorf("schema %q interrupted %v, want %q and not interrupted", rep.Schema, rep.Interrupted, ReportSchemaV2)
	}
	// A view reading the replayed skip reports it as skipped, with its
	// reason.
	if _, err := rep.results("tiny", spear.Name); !errors.Is(err, ErrSkipped) || !strings.Contains(err.Error(), reason) {
		t.Errorf("view of the replayed skip: err = %v, want ErrSkipped carrying %q", err, reason)
	}

	first := reportBytes(t, rep)
	back, err := ReadReport(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := reportBytes(t, back); !bytes.Equal(first, second) {
		t.Errorf("v2 report does not round-trip:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
