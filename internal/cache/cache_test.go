package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("warm access missed")
	}
	// Same line, different offset.
	if !c.Access(0x13f) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFlushEvicts(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	c.Access(0x200)
	if !c.Lookup(0x200) {
		t.Fatal("line not present after fill")
	}
	c.Flush(0x23f) // same line
	if c.Lookup(0x200) {
		t.Error("line present after flush")
	}
	if c.Stats().Flushes != 1 {
		t.Errorf("flush count = %d", c.Stats().Flushes)
	}
	// Flushing an absent line is a no-op.
	c.Flush(0x8000)
	if c.Stats().Flushes != 1 {
		t.Error("flush of absent line counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 64B lines, 2 sets → addresses 0, 128, 256 map to set 0.
	c := MustCache("L1", 256, 64, 2)
	c.Access(0)   // fill way 0
	c.Access(128) // fill way 1
	c.Access(0)   // touch 0: now 128 is LRU
	c.Access(256) // evicts 128
	if !c.Lookup(0) {
		t.Error("recently used line evicted")
	}
	if c.Lookup(128) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(256) {
		t.Error("new line absent")
	}
	if c.Stats().Evicts != 1 {
		t.Errorf("evicts = %d", c.Stats().Evicts)
	}
}

// Property: immediately after Access(a), Lookup(a) is true (the line was
// filled or already present).
func TestQuickAccessThenPresent(t *testing.T) {
	c := MustCache("L1", 32<<10, 64, 8)
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a := uint64(rng.Intn(1 << 22))
		c.Access(a)
		return c.Lookup(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses always.
func TestQuickStatsConsistent(t *testing.T) {
	c := MustCache("L1", 4<<10, 64, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		c.Access(uint64(rng.Intn(1 << 16)))
	}
	s := c.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := NewCache("x", 1000, 64, 8); err == nil {
		t.Error("accepted non-divisible size")
	}
	if _, err := NewCache("x", 1<<10, 60, 2); err == nil {
		t.Error("accepted non-power-of-two line")
	}
	if _, err := NewCache("x", 1<<10, 64, 0); err == nil {
		t.Error("accepted zero ways")
	}
	if _, err := NewCache("x", 3*64*2, 64, 2); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := NewCache("x", 2, 1, 2); err == nil {
		t.Error("accepted one set of 1-byte lines, whose tags fill 64 bits")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	lat, lvl := h.Access(0x1000)
	if lvl != 3 || lat != h.Lat.Memory {
		t.Errorf("cold access served from level %d lat %d", lvl, lat)
	}
	lat, lvl = h.Access(0x1000)
	if lvl != 1 || lat != h.Lat.L1Hit {
		t.Errorf("warm access served from level %d lat %d", lvl, lat)
	}
	// Evict from L1 only, by flushing L1 but not L2: emulate by filling
	// conflicting lines is complex; instead flush both and check L2 path
	// via a fresh hierarchy where we prime L2 through L1 eviction.
	h.L1.Flush(0x1000)
	lat, lvl = h.Access(0x1000)
	if lvl != 2 || lat != h.Lat.L2Hit {
		t.Errorf("L2 access served from level %d lat %d", lvl, lat)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x40)
	if !h.Cached(0x40) {
		t.Fatal("line absent after access")
	}
	h.Flush(0x40)
	if h.Cached(0x40) {
		t.Error("line present after hierarchy flush")
	}
	h.Access(0x40)
	h.FlushAll()
	if h.Cached(0x40) {
		t.Error("line present after FlushAll")
	}
}

func TestResetStats(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	c.Access(0)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if !c.Lookup(0) {
		t.Error("ResetStats cleared cache contents")
	}
}

func TestFlushAndTimingDistinguishable(t *testing.T) {
	// The covert-channel premise: after flushing, a timed access is
	// slower than a cached one by a margin the receiver can threshold.
	h := DefaultHierarchy()
	h.Access(0x5000)
	warm, _ := h.Access(0x5000)
	h.Flush(0x5000)
	cold, _ := h.Access(0x5000)
	if cold <= warm*10 {
		t.Errorf("cold %d vs warm %d: timing margin too small for flush+reload", cold, warm)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	// Miss on line 0 prefetches line 1 into L2.
	h.Access(0x10000)
	if h.Prefetches != 1 {
		t.Fatalf("prefetch count = %d", h.Prefetches)
	}
	lat, lvl := h.Access(0x10040) // next line: L2 hit thanks to prefetch
	if lvl != 2 || lat != h.Lat.L2Hit {
		t.Errorf("prefetched line served from level %d (lat %d)", lvl, lat)
	}
	// Without prefetch the same pattern misses to memory.
	h2 := DefaultHierarchy()
	h2.Access(0x10000)
	if _, lvl := h2.Access(0x10040); lvl != 3 {
		t.Errorf("baseline next-line access served from level %d", lvl)
	}
}

func TestPrefetchDoesNotBridgeProbeStride(t *testing.T) {
	// The flush+reload probe slots sit 512 bytes (8 lines) apart: the
	// next-line prefetcher must not warm a different slot.
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	h.Access(0x20000)
	if h.Cached(0x20000 + 512) {
		t.Error("prefetch crossed a probe stride")
	}
}

func TestEvictAtBounds(t *testing.T) {
	c := MustCache("x", 1<<10, 64, 2)
	if c.EvictAt(1<<20, 0) || c.EvictAt(0, 99) || c.EvictAt(0, -1) {
		t.Error("out-of-range EvictAt reported success")
	}
	c.Access(0)
	sets, ways := c.Geometry()
	if sets == 0 || ways != 2 {
		t.Errorf("geometry = %d, %d", sets, ways)
	}
	evicted := false
	for w := 0; w < ways; w++ {
		if c.EvictAt(0, w) {
			evicted = true
		}
	}
	if !evicted {
		t.Error("EvictAt missed the filled way")
	}
	if c.Lookup(0) {
		t.Error("line survived EvictAt sweep")
	}
}

// TestDefaultHierarchyAllocs is the cold-construction gate: every core
// builds a hierarchy, so building one must cost a fixed handful of
// objects (the hierarchy, and a Cache plus one line array per level),
// not one allocation per set.
func TestDefaultHierarchyAllocs(t *testing.T) {
	var h *Hierarchy
	allocs := testing.AllocsPerRun(20, func() { h = DefaultHierarchy() })
	if allocs > 8 {
		t.Errorf("DefaultHierarchy allocates %.0f objects, want at most 8", allocs)
	}
	if h.L1 == nil || h.L2 == nil {
		t.Fatal("hierarchy without levels")
	}
}

// refLine and refCache are the reference model FuzzCache checks Cache
// against: the same LRU policy over a separately allocated way slice per
// set, div/mod indexing and an explicit valid bit.
type refLine struct {
	valid bool
	tag   uint64
	lru   uint64
}

type refCache struct {
	lineSize uint64
	sets     uint64
	lines    [][]refLine // [set][way]
	stamp    uint64
	stats    Stats
}

func newRefCache(size, lineSize uint64, ways int) *refCache {
	sets := size / (lineSize * uint64(ways))
	r := &refCache{lineSize: lineSize, sets: sets, lines: make([][]refLine, sets)}
	for i := range r.lines {
		r.lines[i] = make([]refLine, ways)
	}
	return r
}

func (r *refCache) index(addr uint64) (set, tag uint64) {
	lineAddr := addr / r.lineSize
	return lineAddr % r.sets, lineAddr / r.sets
}

func (r *refCache) Lookup(addr uint64) bool {
	set, tag := r.index(addr)
	for _, l := range r.lines[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (r *refCache) Access(addr uint64) bool {
	r.stamp++
	r.stats.Accesses++
	set, tag := r.index(addr)
	ways := r.lines[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = r.stamp
			r.stats.Hits++
			return true
		}
	}
	r.stats.Misses++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
		r.stats.Evicts++
	}
	ways[victim] = refLine{valid: true, tag: tag, lru: r.stamp}
	return false
}

func (r *refCache) Flush(addr uint64) {
	set, tag := r.index(addr)
	for i := range r.lines[set] {
		if l := &r.lines[set][i]; l.valid && l.tag == tag {
			l.valid = false
			r.stats.Flushes++
			return
		}
	}
}

func (r *refCache) EvictAt(set uint64, way int) bool {
	if set >= r.sets || way < 0 || way >= len(r.lines[set]) || !r.lines[set][way].valid {
		return false
	}
	r.lines[set][way].valid = false
	r.stats.Evicts++
	return true
}

func (r *refCache) FlushAll() {
	for s := range r.lines {
		for w := range r.lines[s] {
			r.lines[s][w].valid = false
		}
	}
}

// fuzzGeometries are the shapes FuzzCache drives: direct-mapped, a
// two-set cache where every few lines conflict, and the default L1 and
// L2.
var fuzzGeometries = []struct {
	size, lineSize uint64
	ways           int
}{
	{1 << 10, 64, 1},
	{256, 64, 2},
	{32 << 10, 64, 8},
	{256 << 10, 64, 8},
}

// FuzzCache runs a decoded call sequence against Cache and the reference
// model side by side: every hit result, Lookup answer, EvictAt result
// and Stats value must agree. The first byte picks the geometry; each
// call is three bytes: an opcode, whose top bits scale the address so
// tags reach the top of the address space, and a 16-bit operand.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{2, 0x20, 1, 2, 0xe0, 0xff, 0xff, 3, 0, 0, 0x40, 0x10, 0, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{3, 0x80, 0xaa, 0x55, 0x83, 0x01, 0xff, 0x01, 0xaa, 0x55, 0x06, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		c := MustCache("fuzz", g.size, g.lineSize, g.ways)
		ref := newRefCache(g.size, g.lineSize, g.ways)
		if sets, ways := c.Geometry(); sets != ref.sets || ways != g.ways {
			t.Fatalf("geometry (%d, %d), want (%d, %d)", sets, ways, ref.sets, g.ways)
		}
		for i := 1; i+3 <= len(data); i += 3 {
			op, arg := data[i], uint64(data[i+1])<<8|uint64(data[i+2])
			addr := arg << (4 * (op >> 5))
			if op>>5 == 7 {
				addr = ^arg
			}
			switch op & 7 {
			case 0, 6, 7:
				if got, want := c.Access(addr), ref.Access(addr); got != want {
					t.Fatalf("call %d: Access(%#x) hit = %v, want %v", i/3, addr, got, want)
				}
			case 1:
				if got, want := c.Lookup(addr), ref.Lookup(addr); got != want {
					t.Fatalf("call %d: Lookup(%#x) = %v, want %v", i/3, addr, got, want)
				}
			case 2:
				c.Flush(addr)
				ref.Flush(addr)
			case 3:
				set, way := arg>>4, int(arg&15)-4
				if got, want := c.EvictAt(set, way), ref.EvictAt(set, way); got != want {
					t.Fatalf("call %d: EvictAt(%d, %d) = %v, want %v", i/3, set, way, got, want)
				}
			case 4:
				c.FlushAll()
				ref.FlushAll()
			case 5:
				c.ResetStats()
				ref.stats = Stats{}
			}
			if got := c.Stats(); got != ref.stats {
				t.Fatalf("call %d: stats %+v, want %+v", i/3, got, ref.stats)
			}
		}
	})
}

// BenchmarkHierarchyAccess measures one simulated data access through
// the default hierarchy over a 1 MiB pseudo-random working set: larger
// than L2, so the mix has L1 hits, L2 hits and misses with evictions.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := DefaultHierarchy()
	addrs := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var lat uint64
	for i := 0; i < b.N; i++ {
		l, _ := h.Access(addrs[i&(len(addrs)-1)])
		lat += l
	}
	benchLatency = lat
}

// benchLatency keeps BenchmarkHierarchyAccess's result live.
var benchLatency uint64
