package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spear/internal/iofault"
)

// TestTortureCrashRepairLoad hammers the journal itself: for 32 seeded
// fault plans (every kind, including lying fsyncs and silent bit
// flips), a writer appends through the faulty filesystem, the machine
// crashes, and then on healthy storage Repair and Load must succeed no
// matter what the crash left behind; every loaded record must be one
// that was actually appended; records that predate the faulty epoch
// (a journal adopted as durable) must survive; and fsck after Repair
// must be clean.
func TestTortureCrashRepairLoad(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// Pre-seed a framed journal: durable state from before the
			// faulty epoch, which nothing may destroy.
			pre := Header + "\n" + frameLine(`{"status":"started","key":"old"}`) + "\n" +
				frameLine(`{"status":"done","key":"old","result":{"Cycles":1}}`) + "\n"
			if err := os.WriteFile(filepath.Join(dir, FileName), []byte(pre), 0o644); err != nil {
				t.Fatal(err)
			}

			fa := iofault.NewFaulty(iofault.OS(), iofault.Plan{
				Seed: 2000 + seed,
				Rates: map[iofault.Kind]float64{
					iofault.KindEIO:     0.05,
					iofault.KindENOSPC:  0.03,
					iofault.KindTorn:    0.06,
					iofault.KindShort:   0.04,
					iofault.KindBitFlip: 0.03,
					iofault.KindSyncLie: 0.05,
				},
			})
			var w *Writer
			var err error
			for try := 0; try < 30 && w == nil; try++ {
				w, err = OpenConfig(dir, false, Config{FS: fa, CommitRetries: 8, NospcBackoff: time.Microsecond})
			}
			if w == nil {
				t.Fatalf("open never succeeded: %v", err)
			}
			appended := map[string]bool{"old": true}
			for i := 0; i < 25; i++ {
				key := Hash("torture", fmt.Sprint(seed), fmt.Sprint(i))
				appended[key] = true
				// Errors are allowed (the plan exhausts retries sometimes);
				// the records just don't become durable.
				_ = w.Append(Record{Status: StatusStarted, Key: key})
				_ = w.Append(Record{Status: StatusDone, Key: key, Result: []byte(`{"Cycles":2}`)})
			}
			if err := fa.Crash(); err != nil {
				t.Fatal(err)
			}
			_ = w.Close() // stale handle; reaps the writer goroutine

			// Healing on healthy storage must always succeed.
			if _, err := Repair(nil, dir); err != nil {
				t.Fatalf("Repair on crashed journal: %v", err)
			}
			st, err := Load(dir)
			if err != nil {
				t.Fatalf("Load after Repair: %v", err)
			}
			if st.Quarantined != 0 {
				t.Errorf("%d corrupt records survived Repair", st.Quarantined)
			}
			for key := range st.Terminal {
				if !appended[key] {
					t.Errorf("journal invented record %q", key)
				}
			}
			for key := range st.InFlight {
				if !appended[key] {
					t.Errorf("journal invented in-flight record %q", key)
				}
			}
			if rec, ok := st.Terminal["old"]; !ok || rec.Status != StatusDone {
				t.Error("pre-epoch durable record destroyed")
			}
			rep, err := Fsck(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("journal not clean after Repair:\n%s", rep.Summary())
			}
		})
	}
}
