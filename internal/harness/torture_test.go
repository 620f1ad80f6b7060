package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spear/internal/iofault"
	"spear/internal/journal"
)

// torturePlan is the fault mix for the crash-consistency battery: every
// failure mode the journal claims to survive, at rates high enough that
// most seeds inject several faults per sweep.
func torturePlan(seed int64) iofault.Plan {
	return iofault.Plan{
		Seed: seed,
		Rates: map[iofault.Kind]float64{
			iofault.KindEIO:     0.04,
			iofault.KindENOSPC:  0.02,
			iofault.KindTorn:    0.05,
			iofault.KindShort:   0.03,
			iofault.KindBitFlip: 0.02,
			iofault.KindSyncLie: 0.04,
		},
	}
}

// TestTortureKillCrashResume is the acceptance battery for the durable
// result store: for 32 seeded fault plans, a journaled sweep runs on a
// fault-injecting filesystem, is killed mid-flight, and the machine
// "loses power" (the directory rewinds to its durable image, possibly
// with a torn tail). The resume on healthy storage must then converge to
// a report byte-identical to an uninterrupted sweep's, and a final fsck
// must be clean — every injected corruption repaired or quarantined.
func TestTortureKillCrashResume(t *testing.T) {
	cfgs := twoConfigs()
	kernels := []string{"alpha", "beta"}
	clean := reportBytes(t, tinySuite(t, tinyOptions(), kernels...).
		SweepReportContext(context.Background(), "sweep", cfgs, nil))

	const seeds = 32
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fa := iofault.NewFaulty(iofault.OS(), torturePlan(1000+seed))

			// Phase 1: journaled sweep under injection, killed after a
			// seed-dependent number of runs.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := tinyOptions()
			killAfter := 1 + int(seed%4)
			var mu sync.Mutex
			runs := 0
			opts.FaultHook = func(kernel, config string) error {
				mu.Lock()
				defer mu.Unlock()
				if runs++; runs == killAfter {
					cancel()
				}
				return nil
			}
			s := tinySuite(t, opts, kernels...)
			var sj *SweepJournal
			var err error
			for try := 0; try < 20 && sj == nil; try++ {
				sj, err = OpenSweepJournalConfig(dir, false, SweepJournalConfig{FS: fa})
			}
			if sj != nil {
				s.SweepReportContext(ctx, "sweep", cfgs, sj)
			} else {
				// The injected faults killed every open attempt: the process
				// died before its first run, which resume must also survive.
				t.Logf("open never succeeded (%v); resuming from nothing", err)
			}

			// Phase 2: power loss. The directory rewinds to its durable
			// image; the abandoned writer's handle goes stale.
			if err := fa.Crash(); err != nil {
				t.Fatal(err)
			}
			if sj != nil {
				_ = sj.Close() // reaps the writer goroutine; stale-handle errors expected
			}

			// Phase 3: fsck sees whatever damage survived — it must walk the
			// journal without erroring no matter what the crash left.
			before, err := journal.Fsck(nil, dir)
			if err != nil {
				t.Fatalf("fsck on crashed journal: %v", err)
			}

			// Phase 4: resume on healthy storage converges byte-identically.
			rs := tinySuite(t, tinyOptions(), kernels...)
			rj, err := OpenSweepJournal(dir, true)
			if err != nil {
				t.Fatalf("resume open (fsck was %+v): %v", before, err)
			}
			resumed := rs.SweepReportContext(context.Background(), "sweep", cfgs, rj)
			if err := rj.Close(); err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, resumed); !bytes.Equal(got, clean) {
				t.Errorf("resumed report differs from clean sweep (pre-resume fsck: damaged=%v quarantined-candidates=%d torn=%v)\nclean:\n%s\nresumed:\n%s",
					!before.Clean(), len(before.Bad), before.Torn, clean, got)
			}

			// Phase 5: the store healed — fsck is clean after resume.
			after, err := journal.Fsck(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !after.Clean() {
				t.Errorf("journal still damaged after resume:\n%s", after.Summary())
			}
		})
	}
}

// TestQuarantinedJournalResumeConverges pins the corrupt-but-resumable
// contract end to end: an interior record is bit-flipped (silent media
// damage), and the resume quarantines it to the sidecar, reports the
// count through Quarantined(), re-executes exactly the damaged run, and
// still converges to the byte-identical report.
func TestQuarantinedJournalResumeConverges(t *testing.T) {
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

	// Flip one bit in the first run's "done" record (line 3: header,
	// started, done, ...). The checksum must catch it.
	path := filepath.Join(dir, journal.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	lines[2][len(lines[2])/2] ^= 0x01
	damaged := append([]byte(nil), lines[2]...)
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := tinyOptions()
	var reran []string
	opts.FaultHook = func(kernel, config string) error {
		reran = append(reran, kernel+"/"+config)
		return nil
	}
	rs := tinySuite(t, opts, "tiny")
	rj, err := OpenSweepJournal(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()

	if q := rj.Quarantined(); q != 1 {
		t.Errorf("Quarantined() = %d, want 1", q)
	}
	if replayed, torn := rj.Replayed(); replayed != 1 || torn {
		t.Errorf("Replayed() = %d, %v; want 1, false", replayed, torn)
	}
	resumed := rs.SweepReportContext(context.Background(), "sweep", cfgs, rj)
	if len(reran) != 1 || reran[0] != "tiny/baseline" {
		t.Errorf("resume re-executed %v, want only the quarantined run tiny/baseline", reran)
	}
	if got := reportBytes(t, resumed); !bytes.Equal(got, clean) {
		t.Errorf("quarantine resume differs from clean sweep:\nclean:\n%s\nresumed:\n%s", clean, got)
	}

	// The damaged record is preserved verbatim as evidence in the sidecar.
	side, err := os.ReadFile(filepath.Join(dir, journal.QuarantineName))
	if err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	} else if !bytes.Equal(side, append(damaged, '\n')) {
		t.Errorf("sidecar = %q, want exactly the damaged line %q", side, damaged)
	}

	// After the healing resume, fsck is clean.
	rep, err := journal.Fsck(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("journal not clean after quarantine resume:\n%s", rep.Summary())
	}
}
