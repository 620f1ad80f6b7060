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

// TestRunOnceContract pins the run-once contract: a (kernel, config)
// pair is simulated at most once per suite however often it is asked
// for, any run failure is an ordinary error row backed by a failed
// journal record of a single attempt, and only the caller's own
// cancellation leaves a run without a terminal record (so resume
// re-executes it).
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

			const calls = 16
			for i := 0; i < calls; i++ {
				_, err := s.RunContext(ctx, p, cpu.BaselineConfig())
				switch {
				case tc.cancel && !interrupted(err):
					t.Errorf("call %d: err = %v, want cooperative interruption", i, err)
				case !tc.cancel && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Errorf("call %d: err = %v, want one containing %q", i, err, tc.want)
				case !tc.cancel && interrupted(err):
					t.Errorf("call %d: run failure %v reads as a cooperative interruption", i, err)
				}
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
				if tc.cancel {
					if row == nil || row.Skipped != SkipInterrupted {
						t.Errorf("%s: row %+v, want skipped as interrupted", cfg.Name, row)
					}
					if journaled {
						t.Errorf("%s: interrupted run has terminal record %+v", cfg.Name, rec)
					}
					continue
				}
				if row == nil || row.Result != nil || row.Skipped != "" || row.Attempts != 0 || !strings.Contains(row.Error, tc.want) {
					t.Errorf("%s: row %+v, want a plain error row containing %q", cfg.Name, row, tc.want)
				}
				if !journaled || rec.Status != journal.StatusFailed || rec.Attempts != 1 {
					t.Errorf("%s: terminal record %+v (present %v), want failed with attempts 1", cfg.Name, rec, journaled)
				}
				if n := runs["tiny/"+cfg.Name]; n != 1 {
					t.Errorf("%s: executed %d times, want exactly once", cfg.Name, n)
				}
			}
		})
	}

	// A cancelled run is not memoized: a later call with a live context
	// executes it again, and from then on the memo serves it.
	t.Run("cancelled-then-live", func(t *testing.T) {
		opts := tinyOptions()
		hooks := 0
		opts.FaultHook = func(kernel, config string) error { hooks++; return nil }
		s := tinySuite(t, opts, "tiny")
		p, cfg := s.Prepared[0], cpu.BaselineConfig()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.RunContext(ctx, p, cfg); !interrupted(err) {
			t.Fatalf("cancelled call: err = %v, want cooperative interruption", err)
		}
		for i := 0; i < 3; i++ {
			if res, err := s.RunContext(context.Background(), p, cfg); err != nil || res == nil {
				t.Fatalf("live call %d: res %v, err %v", i, res, err)
			}
		}
		if hooks != 2 {
			t.Errorf("FaultHook ran %d times, want 2 (the cancelled run, then one live re-execution)", hooks)
		}
	})
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
	// The replayed skip is memoized as a plain error for experiments
	// sharing the pair.
	if _, err := s.RunContext(context.Background(), p, spear); err == nil || !strings.Contains(err.Error(), reason) {
		t.Errorf("memoized skip: err = %v, want one carrying %q", err, reason)
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
