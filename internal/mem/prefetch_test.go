package mem

import "testing"

// tinyTimed builds a timed hierarchy with a direct-mapped 2-set L1 so that
// conflict evictions are easy to stage: addresses 0x100, 0x140, 0x180 all
// map to L1 set 0.
func tinyTimed() *Hierarchy {
	return NewTimedHierarchy(HierarchyConfig{
		L1D:        CacheConfig{Name: "l1", Sets: 2, BlockSize: 32, Ways: 1, HitLatency: 1},
		L2:         CacheConfig{Name: "l2", Sets: 8, BlockSize: 64, Ways: 4, HitLatency: 10},
		MemLatency: 100,
	})
}

func TestPrefetchTimelyAndLate(t *testing.T) {
	h := tinyTimed()
	// Fill 0x100 (pc 7) at cycle 0: ready at 111. Main arrives at 200: timely.
	h.AccessAtPC(0x100, false, TidHelper, 0, 7)
	h.AccessAt(0x100, false, TidMain, 200)
	// Fill 0x540 (pc 9, set 0... different set? 0x540>>5 = 0x2A, &1 = 0) at
	// cycle 300; main arrives at 310 while the fill is in flight: late.
	h.AccessAtPC(0x440, false, TidHelper, 300, 9)
	if r := h.AccessAt(0x440, false, TidMain, 310); r.Latency <= 1 {
		t.Fatalf("expected residual fill latency, got %d", r.Latency)
	}
	p := h.FinalizePrefetch()
	if p.Fills != 2 || p.Timely != 1 || p.Late != 1 {
		t.Fatalf("stats = %+v", p.PrefetchClass)
	}
	if got := p.Classified(); got != p.Fills {
		t.Fatalf("classified %d of %d fills", got, p.Fills)
	}
	if len(p.PerPC) != 2 || p.PerPC[0].PC != 7 || p.PerPC[1].PC != 9 {
		t.Fatalf("per-PC rows = %+v", p.PerPC)
	}
}

func TestPrefetchUselessOnEvictionAndAtEnd(t *testing.T) {
	h := tinyTimed()
	h.AccessAtPC(0x100, false, TidHelper, 0, 7)   // evicted untouched below
	h.AccessAt(0x140, false, TidMain, 200)        // conflict: evicts 0x100
	h.AccessAtPC(0x180, false, TidHelper, 300, 7) // resident untouched at end
	p := h.FinalizePrefetch()
	if p.Fills != 2 || p.Useless != 2 {
		t.Fatalf("stats = %+v", p.PrefetchClass)
	}
	if p.Classified() != p.Fills {
		t.Fatalf("classified %d of %d fills", p.Classified(), p.Fills)
	}
}

func TestPrefetchHarmful(t *testing.T) {
	h := tinyTimed()
	h.AccessAt(0x140, false, TidMain, 0)         // main's working-set block
	h.AccessAtPC(0x100, false, TidHelper, 10, 7) // evicts 0x140, records victim
	h.AccessAt(0x140, false, TidMain, 400)       // demand miss on the victim
	p := h.FinalizePrefetch()
	if p.Fills != 1 || p.Harmful != 1 || p.Useless != 0 {
		t.Fatalf("stats = %+v", p.PrefetchClass)
	}
	if p.Classified() != p.Fills {
		t.Fatalf("classified %d of %d fills", p.Classified(), p.Fills)
	}
}

func TestPrefetchTouchedFillNotHarmful(t *testing.T) {
	h := tinyTimed()
	h.AccessAt(0x140, false, TidMain, 0)
	h.AccessAtPC(0x100, false, TidHelper, 10, 7) // evicts 0x140
	h.AccessAt(0x100, false, TidMain, 400)       // main uses the prefetch: timely
	h.AccessAt(0x140, false, TidMain, 500)       // victim miss after use: no harm charge
	p := h.FinalizePrefetch()
	if p.Timely != 1 || p.Harmful != 0 {
		t.Fatalf("stats = %+v", p.PrefetchClass)
	}
	if p.Classified() != p.Fills {
		t.Fatalf("classified %d of %d fills", p.Classified(), p.Fills)
	}
}

func TestPrefetchHelperRefetchRepairsVictim(t *testing.T) {
	h := tinyTimed()
	h.AccessAt(0x140, false, TidMain, 0)
	h.AccessAtPC(0x100, false, TidHelper, 10, 7) // evicts 0x140
	h.AccessAtPC(0x140, false, TidHelper, 20, 9) // helper refetches the victim (evicting 0x100)
	h.AccessAt(0x140, false, TidMain, 400)       // main hits: no harm anywhere
	p := h.FinalizePrefetch()
	if p.Harmful != 0 {
		t.Fatalf("stats = %+v", p.PrefetchClass)
	}
	if p.Classified() != p.Fills {
		t.Fatalf("classified %d of %d fills", p.Classified(), p.Fills)
	}
}

func TestPrefetchDisabledOnUntimedHierarchy(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.AccessAtPC(0x100, false, TidHelper, 0, 7)
	p := h.FinalizePrefetch()
	if p.Fills != 0 || len(p.PerPC) != 0 {
		t.Fatalf("untimed hierarchy tracked prefetches: %+v", p)
	}
}
