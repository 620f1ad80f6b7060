package mem

import "fmt"

// Hardware thread identities, shared by every per-thread statistics array
// in the simulator (cache Accesses/Misses, Result counters). TidMain is
// the architectural program; TidHelper is the speculative helper context
// (the SPEAR p-thread, and the slot the stride prefetcher's traffic is
// charged to).
const (
	TidMain   = 0
	TidHelper = 1
	NumTids   = 2
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	Sets       int // number of sets (power of two)
	BlockSize  int // bytes per block (power of two)
	Ways       int // associativity
	HitLatency int // cycles charged at this level
}

// Size returns the capacity in bytes.
func (c CacheConfig) Size() int { return c.Sets * c.BlockSize * c.Ways }

func (c CacheConfig) validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: cache %s: sets %d not a positive power of two", c.Name, c.Sets)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("mem: cache %s: block size %d not a positive power of two", c.Name, c.BlockSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: cache %s: ways %d", c.Name, c.Ways)
	}
	if c.HitLatency <= 0 {
		return fmt.Errorf("mem: cache %s: hit latency %d", c.Name, c.HitLatency)
	}
	return nil
}

type cacheLine struct {
	tag     uint32
	valid   bool
	dirty   bool
	lastUse uint64 // global LRU clock

	// In-flight fill metadata (read by timed hierarchies only): ready is the
	// cycle the block's memory fill completes. An L2 line also records
	// fillBlock, the L1 block whose miss installed it, so an L1 refetch of
	// that block from L2 inherits the fill's ready cycle.
	ready     uint64
	fillBlock uint32

	// Prefetch-usefulness metadata (meaningful only while prefetched is
	// set): the block was brought in by the helper thread, prefPC is the
	// static PC of the load that filled it, touched records whether the
	// main thread has accessed it since the fill, and harmed records that
	// the fill's eviction victim was demand-missed while this block sat
	// untouched.
	prefetched bool
	touched    bool
	harmed     bool
	prefPC     int
}

// CacheStats counts accesses per hardware thread (TidMain, TidHelper).
type CacheStats struct {
	Accesses [NumTids]uint64
	Misses   [NumTids]uint64
	Evicted  uint64
	WriteBk  uint64
}

// MissRate returns the combined miss rate across threads.
func (s CacheStats) MissRate() float64 {
	a := s.Accesses[TidMain] + s.Accesses[TidHelper]
	if a == 0 {
		return 0
	}
	return float64(s.Misses[TidMain]+s.Misses[TidHelper]) / float64(a)
}

// Cache is one set-associative, write-back, write-allocate, LRU cache level.
type Cache struct {
	cfg      CacheConfig
	lines    []cacheLine // sets*ways, set-major
	setShift uint
	setMask  uint32
	clock    uint64
	Stats    CacheStats
}

// NewCache builds a cache level; it panics on invalid geometry since
// configurations are compiled into the harness.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.BlockSize {
		shift++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]cacheLine, cfg.Sets*cfg.Ways),
		setShift: shift,
		setMask:  uint32(cfg.Sets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// BlockAddr returns the block-aligned address for addr.
func (c *Cache) BlockAddr(addr uint32) uint32 { return addr &^ uint32(c.cfg.BlockSize-1) }

// victimInfo describes the line displaced by a fill, for prefetch
// accounting. Valid is false when the fill took an empty way.
type victimInfo struct {
	valid      bool
	block      uint32 // block address of the evicted line
	prefetched bool
	touched    bool
	harmed     bool
	prefPC     int
}

// accessTrack looks up addr, allocating on miss. It reports whether the
// lookup hit, whether a dirty block was written back, the line that now
// holds the block and, on a miss that displaced a valid line, a
// description of the victim.
func (c *Cache) accessTrack(addr uint32, write bool, tid int) (hit, writeback bool, line *cacheLine, evicted victimInfo) {
	c.clock++
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift >> uint(log2(c.cfg.Sets))
	ways := c.lines[int(set)*c.cfg.Ways : int(set+1)*c.cfg.Ways]
	c.Stats.Accesses[tid]++

	victim := 0
	var victimUse uint64 = ^uint64(0)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.lastUse = c.clock
			if write {
				l.dirty = true
			}
			return true, false, l, victimInfo{}
		}
		if !l.valid {
			victim = i
			victimUse = 0
		} else if l.lastUse < victimUse {
			victim = i
			victimUse = l.lastUse
		}
	}
	c.Stats.Misses[tid]++
	v := &ways[victim]
	if v.valid {
		c.Stats.Evicted++
		if v.dirty {
			c.Stats.WriteBk++
			writeback = true
		}
		evicted = victimInfo{
			valid:      true,
			block:      c.lineBlockAddr(set, v.tag),
			prefetched: v.prefetched,
			touched:    v.touched,
			harmed:     v.harmed,
			prefPC:     v.prefPC,
		}
	}
	*v = cacheLine{tag: tag, valid: true, dirty: write, lastUse: c.clock}
	return false, writeback, v, evicted
}

// lineBlockAddr reconstructs a line's block address from its set and tag.
func (c *Cache) lineBlockAddr(set, tag uint32) uint32 {
	return (tag<<uint(log2(c.cfg.Sets)) | set) << c.setShift
}

// lineFor returns the resident line holding addr, or nil.
func (c *Cache) lineFor(addr uint32) *cacheLine {
	set := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift >> uint(log2(c.cfg.Sets))
	ways := c.lines[int(set)*c.cfg.Ways : int(set+1)*c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// Contains reports whether addr currently hits without disturbing LRU or
// statistics (used by tests and by prefetch-usefulness accounting).
func (c *Cache) Contains(addr uint32) bool { return c.lineFor(addr) != nil }

// Flush invalidates all lines and clears statistics.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.clock = 0
	c.Stats = CacheStats{}
}

// ResetStats clears counters but keeps contents (for cache warm-up).
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// HierarchyConfig assembles the Table 2 memory system: an L1 data cache, a
// unified L2, and the main-memory access latency.
type HierarchyConfig struct {
	L1D        CacheConfig
	L2         CacheConfig
	MemLatency int
}

// DefaultHierarchy returns the paper's Table 2 configuration: L1D 256 sets x
// 32 B x 4-way (32 KiB, 1 cycle), unified L2 1024 sets x 64 B x 4-way
// (256 KiB, 12 cycles), memory 120 cycles.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1D:        CacheConfig{Name: "dl1", Sets: 256, BlockSize: 32, Ways: 4, HitLatency: 1},
		L2:         CacheConfig{Name: "ul2", Sets: 1024, BlockSize: 64, Ways: 4, HitLatency: 12},
		MemLatency: 120,
	}
}

// WithLatencies returns a copy with the L2 and memory latencies replaced
// (the knobs swept in Figure 9).
func (h HierarchyConfig) WithLatencies(l2, memLat int) HierarchyConfig {
	h.L2.HitLatency = l2
	h.MemLatency = memLat
	return h
}

// AccessResult describes one hierarchy access.
type AccessResult struct {
	Latency int  // total cycles including every level traversed
	L1Miss  bool // missed in the L1 data cache
	L2Miss  bool // missed in the unified L2
}

// Hierarchy is the two-level data memory system. All hardware threads share
// it; per-thread statistics identify whose accesses missed, which is how the
// harness measures the main-thread miss reduction of Figure 8.
//
// When built with NewTimedHierarchy, the hierarchy additionally tracks
// in-flight memory fills: a block whose fill was initiated at time T with
// latency L is present in the tags immediately (so a second request merges
// rather than re-fetching) but a consumer arriving before T+L waits for the
// remaining fill time. This is what makes prefetch *timeliness* matter — a
// p-thread access moments before the main thread saves almost nothing,
// while one issued a full memory latency ahead turns the miss into a hit.
type Hierarchy struct {
	cfg  HierarchyConfig
	L1D  *Cache
	L2   *Cache
	pref *prefTracker // prefetch-usefulness accounting; non-nil marks a timed hierarchy
}

// NewHierarchy builds an untimed hierarchy (functional profiling use).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{cfg: cfg, L1D: NewCache(cfg.L1D), L2: NewCache(cfg.L2)}
}

// NewTimedHierarchy builds a hierarchy that models in-flight fills; callers
// must use AccessAt with a monotonic clock.
func NewTimedHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := NewHierarchy(cfg)
	h.pref = newPrefTracker()
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Access performs an untimed data access by thread tid (0 main, 1
// p-thread) and returns the latency and per-level miss outcome. Misses
// allocate at every level (write-allocate); write-backs are accounted but
// add no latency, as in sim-outorder's default.
func (h *Hierarchy) Access(addr uint32, write bool, tid int) AccessResult {
	return h.AccessAt(addr, write, tid, 0)
}

// AccessAt performs a data access at the given cycle. On a timed hierarchy
// it accounts for in-flight fills; on an untimed one `now` is ignored.
func (h *Hierarchy) AccessAt(addr uint32, write bool, tid int, now uint64) AccessResult {
	return h.AccessAtPC(addr, write, tid, now, -1)
}

// AccessAtPC is AccessAt with the static PC of the requesting load, which
// the prefetch-usefulness accounting attributes helper-thread fills to.
// Pass pc = -1 when the access is not a helper prefetch.
func (h *Hierarchy) AccessAtPC(addr uint32, write bool, tid int, now uint64, pc int) AccessResult {
	res := AccessResult{Latency: h.cfg.L1D.HitLatency}
	block := h.L1D.BlockAddr(addr)
	hit, _, line, victim := h.L1D.accessTrack(addr, write, tid)
	if hit {
		if h.pref != nil {
			// Merge with the outstanding fill.
			inFlight := line.ready > now
			if inFlight {
				res.Latency = int(line.ready - now)
			}
			h.pref.observeHit(line, tid, inFlight)
		}
		return res
	}
	if h.pref != nil {
		h.pref.observeFill(h.L1D, block, line, victim, tid, pc)
	}
	res.L1Miss = true
	res.Latency += h.cfg.L2.HitLatency
	hit2, _, line2, _ := h.L2.accessTrack(addr, write, tid)
	if hit2 {
		if line2.fillBlock == block {
			line.ready = line2.ready
		}
		return res
	}
	res.L2Miss = true
	res.Latency += h.cfg.MemLatency
	line.ready = now + uint64(res.Latency)
	line2.ready, line2.fillBlock = line.ready, block
	return res
}

// FinalizePrefetch classifies the helper-thread fills still resident (and
// untouched) at end of run and returns the completed accounting. Nil-safe
// on untimed hierarchies, where it returns an empty value.
func (h *Hierarchy) FinalizePrefetch() PrefetchStats {
	if h.pref == nil {
		return PrefetchStats{}
	}
	return h.pref.finalize(h.L1D)
}

// Flush invalidates both levels.
func (h *Hierarchy) Flush() { h.L1D.Flush(); h.L2.Flush() }

// ResetStats clears counters at both levels without invalidating contents.
func (h *Hierarchy) ResetStats() { h.L1D.ResetStats(); h.L2.ResetStats() }
