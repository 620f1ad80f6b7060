package mem

import "testing"

// Tests for the in-flight fill model (NewTimedHierarchy): prefetch
// timeliness semantics.

func TestTimedFillMergesEarlyConsumer(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	// Prefetch at t=100: full miss, fill ready at 100+133.
	r := h.AccessAt(0x4000, false, 1, 100)
	if !r.L2Miss || r.Latency != 133 {
		t.Fatalf("prefetch access = %+v", r)
	}
	// Consumer at t=150: tag hit, but the fill is still in flight; the
	// consumer waits out the remainder (233-150 = 83).
	r = h.AccessAt(0x4000, false, 0, 150)
	if r.L1Miss {
		t.Error("merged access should be a tag hit")
	}
	if r.Latency != 83 {
		t.Errorf("merged latency = %d, want 83", r.Latency)
	}
}

func TestTimedFillCompletedGivesFullHit(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	h.AccessAt(0x4000, false, 1, 100)
	r := h.AccessAt(0x4000, false, 0, 500) // long after the fill
	if r.L1Miss || r.Latency != 1 {
		t.Errorf("late consumer = %+v, want 1-cycle hit", r)
	}
	// A completed fill stays a full hit.
	r = h.AccessAt(0x4000, false, 0, 501)
	if r.Latency != 1 {
		t.Errorf("second consumer = %+v", r)
	}
}

func TestTimedFillSameBlockDifferentOffset(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	h.AccessAt(0x4000, false, 1, 0)
	// Another word of the same 32-byte block merges with the fill.
	r := h.AccessAt(0x4018, false, 0, 10)
	if r.L1Miss || r.Latency != 123 {
		t.Errorf("same-block merge = %+v, want latency 123", r)
	}
}

func TestTimedFillL2HitNotTracked(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	h.AccessAt(0x4000, false, 0, 0) // full miss, installs in L1+L2
	// Evict from L1 by filling the set (L1 set stride 8 KiB).
	for i := 1; i <= 4; i++ {
		h.AccessAt(0x4000+uint32(i*8192), false, 0, 10)
	}
	// Re-access long after: L1 miss, L2 hit, short latency — and no
	// pending-fill tracking for L2-served fills.
	r := h.AccessAt(0x4000, false, 0, 500)
	if !r.L1Miss || r.L2Miss || r.Latency != 13 {
		t.Errorf("L2-served refill = %+v", r)
	}
	r = h.AccessAt(0x4000, false, 0, 501)
	if r.Latency != 1 {
		t.Errorf("after L2 refill = %+v, want hit", r)
	}
}

func TestTimedFillSurvivesL1EvictionInFlight(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	h.AccessAt(0x4000, false, 0, 0) // full miss: fill ready at 133
	// Evict from L1 while the fill is in flight (L1 set stride 8 KiB;
	// each evicting block sits in a different L2 set).
	for i := 1; i <= 4; i++ {
		h.AccessAt(0x4000+uint32(i*8192), false, 0, 10)
	}
	// Refetch from L2 before the fill completes: the refetched line
	// carries the fill's ready cycle.
	r := h.AccessAt(0x4000, false, 0, 20)
	if !r.L1Miss || r.L2Miss || r.Latency != 13 {
		t.Fatalf("L2-served refetch = %+v", r)
	}
	r = h.AccessAt(0x4000, false, 0, 40)
	if r.L1Miss || r.Latency != 133-40 {
		t.Errorf("hit before the fill completes = %+v, want latency %d", r, 133-40)
	}
}

func TestUntimedHierarchyIgnoresClock(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.Access(0x4000, false, 0)
	r := h.Access(0x4000, false, 0)
	if r.Latency != 1 {
		t.Errorf("untimed second access = %+v", r)
	}
}

func TestTimedFillWritesTrackToo(t *testing.T) {
	h := NewTimedHierarchy(DefaultHierarchy())
	r := h.AccessAt(0x9000, true, 0, 0)
	if !r.L2Miss {
		t.Fatal("cold write should miss")
	}
	// A read shortly after the write-allocate merges with its fill.
	r = h.AccessAt(0x9000, false, 0, 50)
	if r.Latency != 83 {
		t.Errorf("read after write-allocate = %+v, want remaining 83", r)
	}
}
