// Package cache implements a set-associative cache hierarchy with LRU
// replacement, a latency model, and CLFLUSH-style line eviction. The
// cache is the covert channel of the Spectre attack: speculative loads
// allocate lines that survive the pipeline squash, and the attacker reads
// them back with timed probes (flush+reload).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/telemetry"
)

// line is one cache line's metadata. The valid bit is folded into the
// tag: key is tag+1 for a valid line and 0 for an invalid one, which
// NewCache keeps unambiguous by rejecting geometries whose tags would use
// all 64 address bits.
type line struct {
	key uint64 // tag+1; 0 = invalid
	lru uint64 // last-touch stamp; larger = more recent
}

// Stats counts the traffic seen by one cache level.
type Stats struct {
	Accesses uint64 // lookups (loads and stores)
	Hits     uint64
	Misses   uint64
	Flushes  uint64 // lines invalidated by Flush
	Evicts   uint64 // lines displaced by fills
}

// Cache is a single set-associative cache level.
type Cache struct {
	name      string
	lineSize  uint64
	sets      uint64
	ways      int
	lineShift uint   // log2(lineSize)
	setShift  uint   // log2(sets)
	lines     []line // set-major: set s is lines[s*ways : (s+1)*ways]
	stamp     uint64
	stats     Stats
}

// NewCache builds a cache level. size is total capacity in bytes;
// lineSize and the set count derived from size/(lineSize*ways) must be
// powers of two, and not both 1.
func NewCache(name string, size, lineSize uint64, ways int) (*Cache, error) {
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", name, lineSize)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive", name)
	}
	if size%(lineSize*uint64(ways)) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by lineSize*ways", name, size)
	}
	sets := size / (lineSize * uint64(ways))
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	if lineSize == 1 && sets == 1 {
		return nil, fmt.Errorf("cache %s: one set of 1-byte lines leaves no tag bit free", name)
	}
	return &Cache{
		name: name, lineSize: lineSize, sets: sets, ways: ways,
		lineShift: uint(bits.TrailingZeros64(lineSize)),
		setShift:  uint(bits.TrailingZeros64(sets)),
		lines:     make([]line, sets*uint64(ways)),
	}, nil
}

// MustCache is NewCache that panics on configuration errors.
func MustCache(name string, size, lineSize uint64, ways int) *Cache {
	c, err := NewCache(name, size, lineSize, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's label (e.g. "L1D").
func (c *Cache) Name() string { return c.name }

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() uint64 { return c.lineSize }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the level to the state NewCache built it in — every line
// invalid, LRU stamps and counters zero — keeping its geometry and its
// line array.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stamp = 0
	c.stats = Stats{}
}

// set returns the ways of the set holding addr and the key a valid line
// for addr carries there.
func (c *Cache) set(addr uint64) (ways []line, key uint64) {
	lineAddr := addr >> c.lineShift
	base := (lineAddr & (c.sets - 1)) * uint64(c.ways)
	return c.lines[base : base+uint64(c.ways)], lineAddr>>c.setShift + 1
}

// Lookup probes the cache without modifying contents or stats. It
// reports whether the line holding addr is present.
func (c *Cache) Lookup(addr uint64) bool {
	ways, key := c.set(addr)
	for i := range ways {
		if ways[i].key == key {
			return true
		}
	}
	return false
}

// Access performs a load/store lookup, allocating the line on miss
// (write-allocate) and updating LRU state. It reports whether the access
// hit.
func (c *Cache) Access(addr uint64) bool {
	c.stamp++
	c.stats.Accesses++
	ways, key := c.set(addr)
	for i := range ways {
		if ways[i].key == key {
			ways[i].lru = c.stamp
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	// Fill: choose invalid way, else LRU victim.
	victim := 0
	for i := range ways {
		if ways[i].key == 0 {
			victim = i
			goto fill
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	c.stats.Evicts++
fill:
	ways[victim] = line{key: key, lru: c.stamp}
	return false
}

// Flush invalidates the line containing addr, if present.
func (c *Cache) Flush(addr uint64) {
	ways, key := c.set(addr)
	for i := range ways {
		if ways[i].key == key {
			ways[i].key = 0
			c.stats.Flushes++
			return
		}
	}
}

// Geometry returns the cache's set and way counts.
func (c *Cache) Geometry() (sets uint64, ways int) { return c.sets, c.ways }

// EvictAt invalidates the line at (set, way) if valid, reporting whether
// anything was evicted. It models co-tenant interference: another core's
// working set displacing this one's lines.
func (c *Cache) EvictAt(set uint64, way int) bool {
	if set >= c.sets || way < 0 || way >= c.ways {
		return false
	}
	l := &c.lines[set*uint64(c.ways)+uint64(way)]
	if l.key == 0 {
		return false
	}
	l.key = 0
	c.stats.Evicts++
	return true
}

// FlushAll invalidates every line (used between experiment runs).
func (c *Cache) FlushAll() {
	for i := range c.lines {
		c.lines[i].key = 0
	}
}

// Latencies configures the cycle cost of hits at each point in the
// hierarchy. Defaults follow DefaultLatencies.
type Latencies struct {
	L1Hit  uint64 // load-to-use on an L1 hit
	L2Hit  uint64 // L1 miss, L2 hit
	Memory uint64 // miss in both levels (DRAM)
}

// DefaultLatencies models a small out-of-order desktop part: 3-cycle L1,
// 30-cycle L2, 200-cycle DRAM. The wide L1-vs-DRAM gap is what makes the
// flush+reload receiver's threshold trivial to set.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 3, L2Hit: 30, Memory: 200}
}

// Hierarchy is a two-level cache with a shared latency model.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	Lat Latencies

	// NextLinePrefetch enables a simple sequential prefetcher: any
	// demand access that misses L1 also brings the next line into L2.
	// It speeds streaming workloads and is an ablation knob: the
	// flush+reload channel survives it because the probe array's
	// 512-byte stride keeps candidate slots eight lines apart.
	NextLinePrefetch bool
	// Prefetches counts issued prefetch fills.
	Prefetches uint64

	// Tel, when non-nil, receives fill/evict/flush events. The emitting
	// core attaches it (cpu.AttachTelemetry); the hierarchy itself never
	// consults it beyond a nil check, so the disabled path is unchanged.
	Tel *telemetry.Recorder
	// Clock points at the emitting core's cycle counter so cache events
	// carry core time; the core repoints it at the episode-local clock
	// during speculation so wrong-path fills nest inside their episode.
	Clock *uint64
}

// DefaultHierarchy builds a 32 KiB 8-way L1 and 256 KiB 8-way L2 with
// 64-byte lines and default latencies.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:  MustCache("L1D", 32<<10, 64, 8),
		L2:  MustCache("L2", 256<<10, 64, 8),
		Lat: DefaultLatencies(),
	}
}

// Reset empties both levels, zeroes every counter and detaches the
// event sink and clock. Geometry, latencies and the prefetch switch are
// configuration and stay as they are.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.Prefetches = 0
	h.Tel, h.Clock = nil, nil
}

// Access simulates a data access at addr and returns its latency in
// cycles plus which level (1, 2, or 3=memory) served it.
func (h *Hierarchy) Access(addr uint64) (latency uint64, level int) {
	if h.Tel == nil {
		if h.L1.Access(addr) {
			return h.Lat.L1Hit, 1
		}
		if h.NextLinePrefetch {
			h.Prefetches++
			h.L2.Access(addr + h.LineSize())
		}
		if h.L2.Access(addr) {
			return h.Lat.L2Hit, 2
		}
		return h.Lat.Memory, 3
	}
	return h.accessTraced(addr)
}

// accessTraced is Access with event emission: identical lookup/fill
// behaviour, plus KindCacheFill on miss and KindCacheEvict per line the
// fill displaced. Access dispatches here only when h.Tel != nil.
//
//crspectrevet:guarded
func (h *Hierarchy) accessTraced(addr uint64) (latency uint64, level int) {
	e1, e2 := h.L1.stats.Evicts, h.L2.stats.Evicts
	if h.L1.Access(addr) {
		return h.Lat.L1Hit, 1
	}
	if h.NextLinePrefetch {
		h.Prefetches++
		h.L2.Access(addr + h.LineSize())
	}
	latency, level = h.Lat.Memory, 3
	if h.L2.Access(addr) {
		latency, level = h.Lat.L2Hit, 2
	}
	cyc := h.now()
	for ; e1 < h.L1.stats.Evicts; e1++ {
		h.Tel.Emit(telemetry.Event{Kind: telemetry.KindCacheEvict, Level: 1, Cycle: cyc, Addr: addr})
	}
	for ; e2 < h.L2.stats.Evicts; e2++ {
		h.Tel.Emit(telemetry.Event{Kind: telemetry.KindCacheEvict, Level: 2, Cycle: cyc, Addr: addr})
	}
	h.Tel.Emit(telemetry.Event{
		Kind: telemetry.KindCacheFill, Level: uint8(level), Cycle: cyc,
		Addr: addr, Val: latency,
	})
	return latency, level
}

// now reads the attached core clock (0 when no core is attached).
func (h *Hierarchy) now() uint64 {
	if h.Clock != nil {
		return *h.Clock
	}
	return 0
}

// Flush evicts the line containing addr from every level (CLFLUSH).
func (h *Hierarchy) Flush(addr uint64) {
	if h.Tel != nil {
		f1, f2 := h.L1.stats.Flushes, h.L2.stats.Flushes
		h.L1.Flush(addr)
		h.L2.Flush(addr)
		cyc := h.now()
		if h.L1.stats.Flushes > f1 {
			h.Tel.Emit(telemetry.Event{Kind: telemetry.KindCacheFlush, Level: 1, Cycle: cyc, Addr: addr})
		}
		if h.L2.stats.Flushes > f2 {
			h.Tel.Emit(telemetry.Event{Kind: telemetry.KindCacheFlush, Level: 2, Cycle: cyc, Addr: addr})
		}
		return
	}
	h.L1.Flush(addr)
	h.L2.Flush(addr)
}

// FlushAll empties both levels.
func (h *Hierarchy) FlushAll() {
	h.L1.FlushAll()
	h.L2.FlushAll()
}

// Cached reports whether addr is present in any level (debug/test aid;
// does not perturb LRU or stats).
func (h *Hierarchy) Cached(addr uint64) bool {
	return h.L1.Lookup(addr) || h.L2.Lookup(addr)
}

// LineSize returns the line size shared by the hierarchy.
func (h *Hierarchy) LineSize() uint64 { return h.L1.LineSize() }
