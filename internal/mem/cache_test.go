package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// access is accessTrack without the line and victim.
func (c *Cache) access(addr uint32, write bool, tid int) (hit, writeback bool) {
	hit, writeback, _, _ = c.accessTrack(addr, write, tid)
	return hit, writeback
}

func smallCache() *Cache {
	return NewCache(CacheConfig{Name: "t", Sets: 4, BlockSize: 16, Ways: 2, HitLatency: 1})
}

func TestCacheSize(t *testing.T) {
	cfg := DefaultHierarchy()
	if got := cfg.L1D.Size(); got != 32*1024 {
		t.Errorf("L1D size = %d, want 32 KiB", got)
	}
	if got := cfg.L2.Size(); got != 256*1024 {
		t.Errorf("L2 size = %d, want 256 KiB", got)
	}
}

func TestCacheValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", Sets: 3, BlockSize: 16, Ways: 1, HitLatency: 1},
		{Name: "x", Sets: 4, BlockSize: 12, Ways: 1, HitLatency: 1},
		{Name: "x", Sets: 4, BlockSize: 16, Ways: 0, HitLatency: 1},
		{Name: "x", Sets: 4, BlockSize: 16, Ways: 1, HitLatency: 0},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestCacheHitMissBasics(t *testing.T) {
	c := smallCache()
	if hit, _ := c.access(0x100, false, 0); hit {
		t.Error("cold access hit")
	}
	if hit, _ := c.access(0x100, false, 0); !hit {
		t.Error("warm access missed")
	}
	// Same block, different offset: still a hit.
	if hit, _ := c.access(0x10F, false, 0); !hit {
		t.Error("same-block access missed")
	}
	// Different block, same set (set stride = sets*block = 256).
	if hit, _ := c.access(0x200, false, 0); hit {
		t.Error("distinct block hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 2-way; set stride 4*16=64
	a, b, d := uint32(0x000), uint32(0x040), uint32(0x080)
	c.access(a, false, 0)
	c.access(b, false, 0)
	c.access(a, false, 0) // a is now MRU
	c.access(d, false, 0) // must evict b
	if !c.Contains(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Contains(b) {
		t.Error("b survived eviction")
	}
	if !c.Contains(d) {
		t.Error("d not installed")
	}
}

func TestCacheWritebackAccounting(t *testing.T) {
	c := smallCache()
	c.access(0x000, true, 0)  // dirty
	c.access(0x040, false, 0) // clean
	_, wb := c.access(0x080, false, 0)
	if !wb {
		t.Error("evicting dirty LRU block did not report writeback")
	}
	if c.Stats.WriteBk != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.WriteBk)
	}
}

func TestCachePerThreadStats(t *testing.T) {
	c := smallCache()
	c.access(0x000, false, TidMain)
	c.access(0x000, false, TidHelper)
	c.access(0x040, false, TidHelper)
	if c.Stats.Accesses[TidMain] != 1 || c.Stats.Misses[TidMain] != 1 {
		t.Errorf("thread 0 stats = %+v", c.Stats)
	}
	if c.Stats.Accesses[TidHelper] != 2 || c.Stats.Misses[TidHelper] != 1 {
		t.Errorf("thread 1 stats = %+v", c.Stats)
	}
}

func TestCacheFlushAndResetStats(t *testing.T) {
	c := smallCache()
	c.access(0x000, false, TidMain)
	c.ResetStats()
	if c.Stats.Accesses[TidMain] != 0 {
		t.Error("ResetStats left counters")
	}
	if !c.Contains(0x000) {
		t.Error("ResetStats invalidated contents")
	}
	c.Flush()
	if c.Contains(0x000) {
		t.Error("Flush kept contents")
	}
}

// TestCacheLRUStackProperty verifies, against a reference model, that an
// access hits iff its block is among the `ways` most recently used distinct
// blocks mapping to the same set.
func TestCacheLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := CacheConfig{Name: "q", Sets: 8, BlockSize: 32, Ways: 4, HitLatency: 1}
		c := NewCache(cfg)
		// Reference: per-set LRU stack of block addresses.
		stacks := make([][]uint32, cfg.Sets)
		setOf := func(blk uint32) int { return int(blk/uint32(cfg.BlockSize)) % cfg.Sets }
		for i := 0; i < 4000; i++ {
			blk := uint32(r.Intn(64)) * uint32(cfg.BlockSize)
			addr := blk + uint32(r.Intn(cfg.BlockSize))
			s := setOf(blk)
			wantHit := false
			for _, b := range stacks[s] {
				if b == blk {
					wantHit = true
					break
				}
			}
			gotHit, _ := c.access(addr, r.Intn(2) == 0, 0)
			if gotHit != wantHit {
				return false
			}
			// Update reference stack: move/push to front, cap at ways.
			ns := []uint32{blk}
			for _, b := range stacks[s] {
				if b != blk {
					ns = append(ns, b)
				}
			}
			if len(ns) > cfg.Ways {
				ns = ns[:cfg.Ways]
			}
			stacks[s] = ns
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	r := h.Access(0x1234, false, 0)
	if !r.L1Miss || !r.L2Miss || r.Latency != 1+12+120 {
		t.Errorf("cold access = %+v, want full-miss latency 133", r)
	}
	r = h.Access(0x1234, false, 0)
	if r.L1Miss || r.Latency != 1 {
		t.Errorf("L1 hit = %+v, want latency 1", r)
	}
	// Evict from L1 only: walk addresses mapping to the same L1 set.
	// L1 set stride = 256 sets * 32 B = 8 KiB; L2 set stride = 64 KiB.
	base := uint32(0x1234) &^ 31
	for i := 1; i <= 4; i++ {
		h.Access(base+uint32(i*8192), false, 0)
	}
	r = h.Access(0x1234, false, 0)
	if !r.L1Miss || r.L2Miss || r.Latency != 1+12 {
		t.Errorf("L2 hit = %+v, want latency 13", r)
	}
}

func TestHierarchyLatencySweepKnobs(t *testing.T) {
	cfg := DefaultHierarchy().WithLatencies(20, 200)
	h := NewHierarchy(cfg)
	r := h.Access(0, false, 0)
	if r.Latency != 1+20+200 {
		t.Errorf("sweep latency = %d, want 221", r.Latency)
	}
}

func TestHierarchySharedBetweenThreads(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	// Thread 1 (p-thread) access installs the block...
	h.Access(0x8000, false, TidHelper)
	// ...so thread 0 hits: this is the prefetching effect.
	r := h.Access(0x8000, false, TidMain)
	if r.L1Miss {
		t.Error("main thread missed on a block the p-thread fetched")
	}
	if h.L1D.Stats.Misses[TidMain] != 0 || h.L1D.Stats.Misses[TidHelper] != 1 {
		t.Errorf("per-thread miss split wrong: %+v", h.L1D.Stats)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := smallCache()
	if c.Stats.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
	c.access(0, false, 0)
	c.access(0, false, 0)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
}
