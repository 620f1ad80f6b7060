package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/asm"
	"spear/internal/cpu"
	"spear/internal/journal"
	"spear/internal/prog"
)

// tinyLoop simulates in a few hundred cycles, so the reliability tests
// below can afford many full sweeps without preparing real kernels.
const tinyLoop = `
main:   li r1, 0
        li r2, 64
loop:   addi r1, r1, 1
        blt r1, r2, loop
        halt
`

// tinySuite builds a synthetic suite around hand-assembled programs,
// bypassing kernel preparation (which dominates harness test time).
func tinySuite(t *testing.T, opts Options, kernels ...string) *Suite {
	t.Helper()
	progs := make([]*prog.Program, 0, len(kernels))
	for _, name := range kernels {
		p, err := asm.Assemble(name+".s", tinyLoop)
		if err != nil {
			t.Fatal(err)
		}
		p.Name = name
		progs = append(progs, p)
	}
	return NewStaticSuite(opts, progs...)
}

func tinyOptions() Options {
	return Options{
		Parallel: 1,
		Seed:     1,
	}
}

func twoConfigs() []cpu.Config {
	return []cpu.Config{cpu.BaselineConfig(), cpu.SPEARConfig(128, false)}
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillAndResumeByteIdentical is the tentpole acceptance criterion: a
// sweep cancelled mid-flight and resumed from its journal must produce a
// report byte-identical to an uninterrupted sweep's.
func TestKillAndResumeByteIdentical(t *testing.T) {
	cfgs := twoConfigs()
	kernels := []string{"alpha", "beta"}

	clean := reportBytes(t, tinySuite(t, tinyOptions(), kernels...).
		SweepReportContext(context.Background(), "sweep", cfgs, nil))

	// "Kill" the sweep by cancelling the context as the third run starts;
	// runs 1 and 2 complete and journal, 3 and 4 do not.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := tinyOptions()
	runs := 0
	opts.FaultHook = func(kernel, config string) error {
		if runs++; runs == 3 {
			cancel()
		}
		return nil
	}
	s := tinySuite(t, opts, kernels...)
	sj, err := OpenSweepJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	partial := s.SweepReportContext(ctx, "sweep", cfgs, sj)
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("cancelled sweep not marked interrupted")
	}
	if partial.Schema != ReportSchemaV2 {
		t.Errorf("partial schema = %q, want %q", partial.Schema, ReportSchemaV2)
	}
	var skipped int
	for _, row := range partial.Rows {
		if row.Skipped == SkipInterrupted {
			skipped++
		}
	}
	if skipped != 2 {
		t.Fatalf("%d rows skipped as interrupted, want 2", skipped)
	}

	// Resume with a fresh suite: completed runs replay from the journal,
	// the two interrupted ones re-execute.
	ropts := tinyOptions()
	resumedRuns := 0
	ropts.FaultHook = func(kernel, config string) error { resumedRuns++; return nil }
	rs := tinySuite(t, ropts, kernels...)
	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	if replayed, torn := rj.Replayed(); replayed != 2 || torn {
		t.Fatalf("Replayed() = %d, %v; want 2, false", replayed, torn)
	}
	resumed := rs.SweepReportContext(context.Background(), "sweep", cfgs, rj)
	if resumedRuns != 2 {
		t.Errorf("resume re-executed %d runs, want exactly the 2 interrupted ones", resumedRuns)
	}
	if got := reportBytes(t, resumed); !bytes.Equal(got, clean) {
		t.Errorf("resumed report differs from the clean sweep:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
	if resumed.Schema != ReportSchema {
		t.Errorf("resumed schema = %q, want %q (converged report uses no v2 fields)", resumed.Schema, ReportSchema)
	}
}

// TestTornJournalResumeReexecutesOnlyTornRun truncates the journal
// mid-record — a crash during the final fsync'd append — and asserts the
// resume drops exactly the torn record, re-executes only its run, and
// still converges to the clean report.
func TestTornJournalResumeReexecutesOnlyTornRun(t *testing.T) {
	cfgs := twoConfigs()
	clean := reportBytes(t, tinySuite(t, tinyOptions(), "tiny").
		SweepReportContext(context.Background(), "sweep", cfgs, nil))

	dir := t.TempDir()
	s := tinySuite(t, tinyOptions(), "tiny")
	sj, err := OpenSweepJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.SweepReportContext(context.Background(), "sweep", cfgs, sj)
	if err := sj.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record (the second run's "done") mid-byte.
	path := filepath.Join(dir, journal.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	opts := tinyOptions()
	var reran []string
	opts.FaultHook = func(kernel, config string) error {
		reran = append(reran, fmt.Sprintf("%s/%s", kernel, config))
		return nil
	}
	rs := tinySuite(t, opts, "tiny")
	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	if replayed, torn := rj.Replayed(); replayed != 1 || !torn {
		t.Fatalf("Replayed() = %d, %v; want 1, true", replayed, torn)
	}
	resumed := rs.SweepReportContext(context.Background(), "sweep", cfgs, rj)
	if len(reran) != 1 || reran[0] != "tiny/SPEAR-128" {
		t.Errorf("resume re-executed %v, want only the torn run tiny/SPEAR-128", reran)
	}
	if got := reportBytes(t, resumed); !bytes.Equal(got, clean) {
		t.Errorf("torn-journal resume differs from the clean sweep:\nclean:\n%s\nresumed:\n%s", clean, got)
	}
}

// TestSchemaNegotiation locks the version negotiation: clean sweeps stay
// on the v1 wire format, reliability fields bump to v2, and ReadReport
// accepts both but nothing else.
func TestSchemaNegotiation(t *testing.T) {
	cfgs := twoConfigs()
	rep := tinySuite(t, tinyOptions(), "tiny").
		SweepReportContext(context.Background(), "sweep", cfgs, nil)
	if rep.Schema != ReportSchema {
		t.Errorf("clean sweep schema = %q, want %q", rep.Schema, ReportSchema)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(&buf); err != nil {
		t.Errorf("v1 report rejected: %v", err)
	}
	if _, err := ReadReport(strings.NewReader(`{"schema":"spear-report/2","interrupted":true,"rows":[]}`)); err != nil {
		t.Errorf("v2 report rejected: %v", err)
	}
	_, err := ReadReport(strings.NewReader(`{"schema":"spear-report/3"}`))
	if !errors.Is(err, ErrReportSchema) {
		t.Errorf("future schema: err = %v, want ErrReportSchema", err)
	}
}

// TestSweepInterruptedRunNotMemoized asserts a cancelled run leaves no
// outcome behind: the next sweep of the same pair executes it and
// succeeds.
func TestSweepInterruptedRunNotMemoized(t *testing.T) {
	opts := tinyOptions()
	runs := 0
	opts.FaultHook = func(kernel, config string) error { runs++; return nil }
	s := tinySuite(t, opts, "tiny")
	cfgs := []cpu.Config{cpu.BaselineConfig()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep := s.SweepReportContext(ctx, "sweep", cfgs, nil); !rep.Interrupted || rep.Rows[0].Skipped != SkipInterrupted {
		t.Fatalf("cancelled sweep: interrupted %v, row %+v; want a skipped row", rep.Interrupted, rep.Rows[0])
	}
	rep := s.SweepReportContext(context.Background(), "sweep", cfgs, nil)
	if rep.Interrupted || rep.Rows[0].Result == nil {
		t.Fatalf("re-sweep after cancellation: interrupted %v, row %+v", rep.Interrupted, rep.Rows[0])
	}
	if runs != 1 {
		t.Errorf("FaultHook ran %d times, want 1 (the live re-sweep)", runs)
	}
}
