package sched

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spear/internal/store"
)

// openIndex opens the report store over the scheduler data dir.
func openIndex(t *testing.T, dir string) *store.Index {
	t.Helper()
	ix, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestDoneReportPersisted pins the write half of the report store: a
// completed job's report is appended to its own run journal as a report
// record, and a fresh store opened over the same dir serves exactly the
// bytes the job produced.
func TestDoneReportPersisted(t *testing.T) {
	dir := t.TempDir()
	eng := staticEngine(t, tinyOptions(), tinyLoop)
	s := New(eng, Config{Workers: 1, DataDir: dir, Store: openIndex(t, dir)})
	defer s.Close()

	job, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, job); snap.State != JobDone {
		t.Fatalf("state = %s (%s)", snap.State, snap.Error)
	}
	rep, _, _ := job.Result()
	want := reportBytes(t, rep)
	if raw := job.RawReport(); !bytes.Equal(raw, want) {
		t.Error("job.RawReport differs from its serialized report")
	}

	ix := openIndex(t, dir)
	got, _, err := ix.Get(job.ID)
	if err != nil {
		t.Fatalf("stored report missing after completion: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("stored report bytes differ from the served report")
	}
}

// TestStoreRestartServesDoneWithoutReexecution: a restarted speard must
// not re-run jobs it had already finished. A fresh scheduler over the
// same data dir answers the identical resubmission from the store — done snapshot,
// cache-hit marker, byte-identical report — without invoking the
// engine at all, even while draining.
func TestStoreRestartServesDoneWithoutReexecution(t *testing.T) {
	dir := t.TempDir()

	// First incarnation: run the sweep for real and record its bytes.
	s1 := New(staticEngine(t, tinyOptions(), tinyLoop), Config{Workers: 1, DataDir: dir, Store: openIndex(t, dir)})
	job1, _, err := s1.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, job1); snap.State != JobDone {
		t.Fatalf("state = %s (%s)", snap.State, snap.Error)
	}
	rep1, _, _ := job1.Result()
	want := reportBytes(t, rep1)
	s1.Close()

	// Second incarnation: a counting engine that MUST stay idle.
	eng := &fakeEngine{}
	s2 := New(eng, Config{Workers: 1, DataDir: dir, Store: openIndex(t, dir)})
	defer s2.Close()

	job2, coalesced, err := s2.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced {
		t.Error("store hit not reported as coalesced")
	}
	snap := job2.Snapshot()
	if snap.State != JobDone || !snap.CacheHit {
		t.Fatalf("restarted submit: state=%s cacheHit=%v, want done cache hit", snap.State, snap.CacheHit)
	}
	if !bytes.Equal(job2.RawReport(), want) {
		t.Error("cache-hit report bytes differ from the original run")
	}
	rep2, _, err := job2.Result()
	if err != nil || rep2 == nil {
		t.Fatalf("Result = %v, %v", rep2, err)
	}
	eng.mu.Lock()
	runs := eng.runs
	eng.mu.Unlock()
	if runs != 0 {
		t.Errorf("engine ran %d sweep(s) for stored work, want 0", runs)
	}

	// A second submission coalesces onto the materialized job.
	again, coalesced, err := s2.Submit(tinyRequest())
	if err != nil || !coalesced || again != job2 {
		t.Errorf("resubmit after hit: err=%v coalesced=%v same=%v", err, coalesced, again == job2)
	}

	// Draining stops admission, not reads: a third incarnation that is
	// already draining still serves the stored report.
	s3 := New(&fakeEngine{}, Config{Workers: 1, DataDir: dir, Store: openIndex(t, dir)})
	defer s3.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s3.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	job3, _, err := s3.Submit(tinyRequest())
	if err != nil {
		t.Fatalf("draining scheduler refused a stored report: %v", err)
	}
	if snap := job3.Snapshot(); snap.State != JobDone || !snap.CacheHit {
		t.Errorf("draining hit: state=%s cacheHit=%v", snap.State, snap.CacheHit)
	}
}
