package speard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"spear/internal/iofault"
	"spear/internal/journal"
	"spear/internal/sched"
)

// torturePlan mirrors the journal battery's fault mix: every failure
// mode the store claims to survive, at rates that inject several faults
// per sweep.
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

// waitReached blocks until the engine hook signals the kill point. A job
// that settles first (say, an injected fault failed its journal open)
// never gets there, so the test fails instead of blocking forever.
func waitReached(t *testing.T, reached <-chan struct{}, job *sched.Job) {
	t.Helper()
	settled := make(chan struct{})
	go func() {
		_ = job.Wait(context.Background())
		close(settled)
	}()
	select {
	case <-reached:
	case <-settled:
		snap := job.Snapshot()
		t.Fatalf("job settled before the kill point: %s %s", snap.State, snap.Error)
	}
}

// TestTortureKillRestartResubmit is the server-level acceptance battery:
// for each seeded fault plan, a sweep is submitted to a scheduler whose
// journal lives on a fault-injecting filesystem, the server is SIGKILLed
// mid-sweep (cancel everything + rewind the directory to its durable
// image), a fresh server is started over the same data dir on healthy
// storage, and the identical request is resubmitted. The resumed job
// must converge to a report byte-identical to an uninterrupted serial
// run's, and a final fsck of the job's journal must be clean.
//
// This drives the full speard stack — request key → journal dir mapping,
// resume-on-restart detection, engine re-preparation — not just the
// harness, so a regression anywhere in the path fails here.
func TestTortureKillRestartResubmit(t *testing.T) {
	req := sched.Request{Kernels: []string{"alpha", "beta"}, Configs: []string{"baseline", "SPEAR-128"}, Seed: 1}

	// Clean serial reference, journal-less: the convergence target.
	clean, _, err := sched.Exec(context.Background(), staticEngine(t, tinyOptions(), tinyLoop), req, sched.JournalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var cleanBuf bytes.Buffer
	if err := clean.WriteJSON(&cleanBuf); err != nil {
		t.Fatal(err)
	}
	cleanBytes := cleanBuf.Bytes()

	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			dataDir := t.TempDir()
			fa := iofault.NewFaulty(iofault.OS(), torturePlan(2000+seed))

			// Incarnation 1: kill lands after a seed-dependent number of
			// runs. The blocked run holds until the kill is delivered so
			// the cancellation always catches the sweep mid-flight.
			killAfter := 1 + int(seed%4)
			reached := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			var mu sync.Mutex
			runs := 0
			opts := tinyOptions()
			opts.FaultHook = func(kernel, config string) error {
				mu.Lock()
				n := runs + 1
				runs = n
				mu.Unlock()
				if n == killAfter {
					once.Do(func() { close(reached) })
					<-release
				}
				return nil
			}
			s1 := sched.New(staticEngine(t, opts, tinyLoop),
				sched.Config{Workers: 1, DataDir: dataDir, FS: fa})
			job, _, err := s1.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitReached(t, reached, job)
			s1.Kill() // SIGKILL: no drain, no grace
			// Power loss: the directory rewinds to its durable image
			// (possibly with a torn tail); everything unsynced vanishes.
			if err := fa.Crash(); err != nil {
				t.Fatal(err)
			}
			close(release)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if werr := job.Wait(ctx); werr != nil {
				t.Fatalf("killed job never settled: %v", werr)
			}
			cancel()
			s1.Close()

			// fsck must walk whatever the crash left without erroring.
			jdir := s1.JournalDir(req)
			before, err := journal.Fsck(nil, jdir)
			if err != nil {
				t.Fatalf("fsck on crashed journal: %v", err)
			}

			// Incarnation 2: healthy storage, same data dir, identical
			// request. The scheduler detects the surviving journal and
			// resumes it.
			s2 := sched.New(staticEngine(t, tinyOptions(), tinyLoop),
				sched.Config{Workers: 1, DataDir: dataDir})
			defer s2.Close()
			job2, coalesced, err := s2.Submit(req)
			if err != nil || coalesced {
				t.Fatalf("resubmit: err=%v coalesced=%v", err, coalesced)
			}
			ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel2()
			if err := job2.Wait(ctx2); err != nil {
				t.Fatal(err)
			}
			rep, _, err := job2.Result()
			if err != nil {
				t.Fatalf("resumed job failed (pre-resume fsck: damaged=%v torn=%v): %v", !before.Clean(), before.Torn, err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), cleanBytes) {
				t.Errorf("converged report differs from the serial reference (pre-resume fsck: damaged=%v bad=%d torn=%v)\nclean:\n%s\nresumed:\n%s",
					!before.Clean(), len(before.Bad), before.Torn, cleanBytes, got.Bytes())
			}

			// The store healed itself on resume.
			after, err := journal.Fsck(nil, jdir)
			if err != nil {
				t.Fatal(err)
			}
			if !after.Clean() {
				t.Errorf("journal still damaged after resume:\n%s", after.Summary())
			}
		})
	}
}

// TestTortureCrashBeforeAnyDurableRun covers the worst kill window: the
// crash lands before any run journaled a terminal record (or even before
// the journal file became durable). The restart must still converge —
// from an empty or missing journal — rather than fail the resume.
func TestTortureCrashBeforeAnyDurableRun(t *testing.T) {
	req := sched.Request{Kernels: []string{"alpha"}, Configs: []string{"baseline"}, Seed: 1}
	clean, _, err := sched.Exec(context.Background(), staticEngine(t, tinyOptions(), tinyLoop), req, sched.JournalSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var cleanBuf bytes.Buffer
	if err := clean.WriteJSON(&cleanBuf); err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	fa := iofault.NewFaulty(iofault.OS(), torturePlan(77))

	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := tinyOptions()
	opts.FaultHook = func(kernel, config string) error {
		once.Do(func() { close(reached) })
		<-release
		return nil
	}
	s1 := sched.New(staticEngine(t, opts, tinyLoop), sched.Config{Workers: 1, DataDir: dataDir, FS: fa})
	job, _, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitReached(t, reached, job) // the very first run is about to execute; nothing terminal yet
	s1.Kill()
	if err := fa.Crash(); err != nil {
		t.Fatal(err)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = job.Wait(ctx)
	s1.Close()

	s2 := sched.New(staticEngine(t, tinyOptions(), tinyLoop), sched.Config{Workers: 1, DataDir: dataDir})
	defer s2.Close()
	job2, _, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := job2.Wait(ctx2); err != nil {
		t.Fatal(err)
	}
	rep, _, err := job2.Result()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), cleanBuf.Bytes()) {
		t.Errorf("empty-journal restart did not converge:\nclean:\n%s\ngot:\n%s", cleanBuf.Bytes(), got.Bytes())
	}
}
