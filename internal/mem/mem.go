// Package mem implements the simulated machine's physical memory: a
// little-endian byte space with per-page R/W/X permissions, backed page by
// page on demand. A page that has never been written has no backing array
// and reads as zero, so a machine costs host memory only for the pages it
// actually stores into, not for its whole address space. Page
// permissions are the substrate for the paper's DEP (Data Execution
// Prevention) discussion: code pages are mapped R+X, stack and data pages
// R+W, so an overflowed stack cannot be executed directly — which is
// exactly why the attack must resort to ROP (reusing code already mapped
// executable).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of memory protection.
const PageSize = 4096

// Perm is a bitmask of page permissions.
type Perm uint8

// Permission bits.
const (
	PermRead  Perm = 1 << iota // page may be read as data
	PermWrite                  // page may be written
	PermExec                   // page may be fetched as instructions
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission as an "rwx"-style triple.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies a memory access fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota // address outside memory or on an unmapped page
	FaultRead                      // read of a non-readable page
	FaultWrite                     // write to a non-writable page
	FaultExec                      // instruction fetch from a non-executable page (DEP violation)
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultRead:
		return "read-protect"
	case FaultWrite:
		return "write-protect"
	case FaultExec:
		return "exec-protect (DEP)"
	}
	return "unknown"
}

// Fault is the error returned on an illegal access.
type Fault struct {
	Kind FaultKind
	Addr uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x", f.Kind, f.Addr)
}

// Memory is a simulated physical memory.
type Memory struct {
	pages []*[PageSize]byte // backing per page; nil until first written
	perms []Perm            // one per page
	gen   []uint64          // per-page write generation (see PageGen)
	free  []*[PageSize]byte // zeroed pages released by Reset, reused by backed

	// OnWrite, when set, observes every successful user-mode store
	// (watchpoints, overflow detectors). It runs after the bytes land.
	// Loader-channel writes (LoadRaw) are not observed.
	OnWrite func(addr uint64, n int)
}

// zeroPage stands in for every page that has never been written. Nothing
// ever stores into it: views of it are handed out with their capacity
// capped, and writes go through backed, which allocates a private page.
var zeroPage [PageSize]byte

// New creates a memory of the given size (rounded up to a whole number of
// pages). All pages start unmapped (no permissions) and unbacked (zero).
func New(size uint64) *Memory {
	m := new(Memory)
	m.Reset(size)
	return m
}

// Reset returns the memory to the state New(size) builds: every page
// unbacked and unmapped, every write generation zero, and no OnWrite
// observer. The page tables are kept when size needs as many pages as the
// memory has, and rebuilt otherwise. Either way the backing arrays are
// zeroed and kept on a free list that later first writes draw from, so a
// memory reused for program after program stops allocating pages once it
// has backed as many as one program needs. A zero Memory is ready to be
// Reset, so an owner can hold one by value.
func (m *Memory) Reset(size uint64) {
	for pg, p := range m.pages {
		if p != nil {
			clear(p[:])
			m.free = append(m.free, p)
			m.pages[pg] = nil
		}
	}
	if pages := (size + PageSize - 1) / PageSize; uint64(len(m.pages)) != pages {
		m.pages = make([]*[PageSize]byte, pages)
		m.perms = make([]Perm, pages)
		m.gen = make([]uint64, pages)
	} else {
		clear(m.perms)
		clear(m.gen)
	}
	m.OnWrite = nil
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.pages)) * PageSize }

// page returns page pg's bytes for reading: its backing array, or the
// shared zero page when it has never been written.
func (m *Memory) page(pg uint64) *[PageSize]byte {
	if p := m.pages[pg]; p != nil {
		return p
	}
	return &zeroPage
}

// backed returns page pg's backing array for writing, backing it on
// first use.
func (m *Memory) backed(pg uint64) *[PageSize]byte {
	if p := m.pages[pg]; p != nil {
		return p
	}
	return m.back(pg)
}

// back gives unbacked page pg a zeroed array: one Reset released, or a
// new one. It stays out of line so backed, on every store's path, keeps
// its pre-free-list size and inlines where it did.
//
//go:noinline
func (m *Memory) back(pg uint64) *[PageSize]byte {
	var p *[PageSize]byte
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = new([PageSize]byte)
	}
	m.pages[pg] = p
	return p
}

// view returns a read-only window onto [addr, addr+n), which must lie in
// one page. Its capacity is capped so an append cannot reach past it.
func (m *Memory) view(addr, n uint64) []byte {
	off := addr % PageSize
	return m.page(addr / PageSize)[off : off+n : off+n]
}

// copyOut fills dst from memory starting at addr, page by page. The range
// has been bounds-checked.
func (m *Memory) copyOut(dst []byte, addr uint64) {
	for len(dst) > 0 {
		n := copy(dst, m.page(addr / PageSize)[addr%PageSize:])
		dst, addr = dst[n:], addr+uint64(n)
	}
}

// copyIn stores src into memory starting at addr, page by page, backing
// each page it touches. The range has been bounds-checked.
func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.backed(addr / PageSize)[addr%PageSize:], src)
		src, addr = src[n:], addr+uint64(n)
	}
}

// Protect sets the permissions of every page overlapping [addr, addr+n).
func (m *Memory) Protect(addr, n uint64, p Perm) error {
	if n == 0 {
		return nil
	}
	end := addr + n
	if end < addr || end > m.Size() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	for pg := addr / PageSize; pg <= (end-1)/PageSize; pg++ {
		m.perms[pg] = p
		m.gen[pg]++
	}
	return nil
}

// PageGen returns the write generation of the page containing addr: a
// counter bumped by every store, loader write (LoadRaw) and Protect call
// touching the page, and never otherwise. Out-of-range addresses report
// generation zero; a page can only become executable through Protect, so
// any successfully fetched page has generation >= 1. Consumers that cache
// derived views of memory (the CPU's predecode cache) compare generations
// to detect staleness instead of registering invalidation hooks.
func (m *Memory) PageGen(addr uint64) uint64 {
	if addr >= m.Size() {
		return 0
	}
	return m.gen[addr/PageSize]
}

// PageGens returns a live view of the per-page write generations, indexed
// by page number (addr / PageSize). It exists so a hot consumer (the
// CPU's predecode cache) can poll generations with a plain slice load
// instead of a method call per fetch; callers must treat the slice as
// read-only.
func (m *Memory) PageGens() []uint64 { return m.gen }

// bumpGen advances the write generation of every page overlapping
// [addr, addr+n). Callers have already bounds-checked the range.
func (m *Memory) bumpGen(addr, n uint64) {
	for pg := addr / PageSize; pg <= (addr+n-1)/PageSize; pg++ {
		m.gen[pg]++
	}
}

// PermAt returns the permissions of the page containing addr.
func (m *Memory) PermAt(addr uint64) Perm {
	if addr >= m.Size() {
		return 0
	}
	return m.perms[addr/PageSize]
}

func (m *Memory) check(addr, n uint64, need Perm, kind FaultKind) error {
	end := addr + n
	if end < addr || end > m.Size() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if n == 0 {
		// Zero-length accesses touch no pages; without this guard the
		// (end-1) below underflows for addr 0 and the permission walk
		// runs off the end of perms.
		if addr >= m.Size() {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		return nil
	}
	pg, last := addr/PageSize, (end-1)/PageSize
	if pg == last {
		// Fast path: accesses of <=8 bytes almost never straddle a page.
		if p := m.perms[pg]; p&need == 0 {
			if p == 0 {
				return &Fault{Kind: FaultUnmapped, Addr: addr}
			}
			return &Fault{Kind: kind, Addr: addr}
		}
		return nil
	}
	for ; pg <= last; pg++ {
		p := m.perms[pg]
		if p == 0 {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		if p&need == 0 {
			return &Fault{Kind: kind, Addr: addr}
		}
	}
	return nil
}

// ReadByte loads one byte.
func (m *Memory) Read8(addr uint64) (byte, error) {
	if err := m.check(addr, 1, PermRead, FaultRead); err != nil {
		return 0, err
	}
	return m.page(addr / PageSize)[addr%PageSize], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v byte) error {
	if err := m.check(addr, 1, PermWrite, FaultWrite); err != nil {
		return err
	}
	pg := addr / PageSize
	m.backed(pg)[addr%PageSize] = v
	m.gen[pg]++
	if m.OnWrite != nil {
		m.OnWrite(addr, 1)
	}
	return nil
}

// Read64 loads a 64-bit little-endian word.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if err := m.check(addr, 8, PermRead, FaultRead); err != nil {
		return 0, err
	}
	return m.raw64(addr), nil
}

// Write64 stores a 64-bit little-endian word.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if err := m.check(addr, 8, PermWrite, FaultWrite); err != nil {
		return err
	}
	if off := addr % PageSize; off <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.backed(addr / PageSize)[off:off+8], v)
	} else {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.copyIn(addr, b[:])
	}
	m.bumpGen(addr, 8)
	if m.OnWrite != nil {
		m.OnWrite(addr, 8)
	}
	return nil
}

// Fetch reads n bytes for instruction fetch; the page must be executable.
// The result may alias memory and must not be modified.
func (m *Memory) Fetch(addr, n uint64) ([]byte, error) {
	if err := m.check(addr, n, PermExec, FaultExec); err != nil {
		return nil, err
	}
	if addr%PageSize+n <= PageSize {
		return m.view(addr, n), nil
	}
	out := make([]byte, n)
	m.copyOut(out, addr)
	return out, nil
}

// FetchNoCopy is the predecoder's fetch: it returns a zero-copy view of n
// bytes of executable memory together with the containing page's write
// generation, so the caller can cache a decode of the bytes and later
// detect staleness with a single PageGen comparison. The range must lie
// within one page (callers fall back to Fetch for the rare straddling
// access); a crossing range returns an unmapped fault rather than a
// half-checked view. A never-written page yields a view of the shared
// zero page; the first store to the page backs it and bumps its
// generation, so a cached view is never trusted past that store.
func (m *Memory) FetchNoCopy(addr, n uint64) ([]byte, uint64, error) {
	end := addr + n
	pg := addr / PageSize
	if end < addr || end > m.Size() || (end-1)/PageSize != pg {
		return nil, 0, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if p := m.perms[pg]; p&PermExec == 0 {
		if p == 0 {
			return nil, 0, &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		return nil, 0, &Fault{Kind: FaultExec, Addr: addr}
	}
	return m.view(addr, n), m.gen[pg], nil
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr, n uint64) ([]byte, error) {
	if err := m.check(addr, n, PermRead, FaultRead); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	m.copyOut(out, addr)
	return out, nil
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if err := m.check(addr, uint64(len(b)), PermWrite, FaultWrite); err != nil {
		return err
	}
	m.copyIn(addr, b)
	m.bumpGen(addr, uint64(len(b)))
	if m.OnWrite != nil {
		m.OnWrite(addr, len(b))
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.Read8(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("mem: unterminated string at %#x", addr)
}

// LoadRaw writes bytes bypassing permission checks. It is the loader's
// privileged channel ("kernel mode"): used to map images and build the
// initial stack before user-mode execution begins. An all-zero chunk
// landing on a never-written page is not copied, since the page already
// reads as zero, so zero-filled data (a .space table) costs no page
// array until the program stores into it. Every page in the range still
// has its write generation bumped.
func (m *Memory) LoadRaw(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	end := addr + uint64(len(b))
	if end < addr || end > m.Size() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	m.bumpGen(addr, uint64(len(b)))
	for len(b) > 0 {
		pg, off := addr/PageSize, addr%PageSize
		n := min(PageSize-off, uint64(len(b)))
		if m.pages[pg] != nil || !bytes.Equal(b[:n], zeroPage[:n]) {
			copy(m.backed(pg)[off:], b[:n])
		}
		b, addr = b[n:], addr+n
	}
	return nil
}

// ZeroRaw is LoadRaw of n zero bytes without the bytes: it clears
// [addr, addr+n) bypassing permission checks. Only pages an earlier write
// backed are touched; a never-written page already reads as zero and
// stays unbacked. Every page in the range has its write generation bumped.
func (m *Memory) ZeroRaw(addr, n uint64) error {
	if n == 0 {
		return nil
	}
	end := addr + n
	if end < addr || end > m.Size() {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	m.bumpGen(addr, n)
	for addr < end {
		pg, off := addr/PageSize, addr%PageSize
		k := min(PageSize-off, end-addr)
		if p := m.pages[pg]; p != nil {
			clear(p[off : off+k])
		}
		addr += k
	}
	return nil
}

// PeekRaw reads bytes bypassing permission checks (debugger channel; GDB
// in the paper's methodology).
func (m *Memory) PeekRaw(addr, n uint64) ([]byte, error) {
	end := addr + n
	if end < addr || end > m.Size() {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	out := make([]byte, n)
	m.copyOut(out, addr)
	return out, nil
}

// Peek64 reads a word bypassing permission checks.
func (m *Memory) Peek64(addr uint64) (uint64, error) {
	if addr+8 > m.Size() || addr+8 < addr {
		return 0, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	return m.raw64(addr), nil
}

func (m *Memory) raw64(addr uint64) uint64 {
	if off := addr % PageSize; off <= PageSize-8 {
		return binary.LittleEndian.Uint64(m.page(addr / PageSize)[off : off+8])
	}
	var b [8]byte
	m.copyOut(b[:], addr)
	return binary.LittleEndian.Uint64(b[:])
}

// FirstDiff compares [addr, addr+n) of two memories in place and reports
// the lowest address at which their bytes differ. Pages backed in neither
// memory are equal without being read. A range that runs past either
// memory's end differs at its first address beyond the smaller memory.
func FirstDiff(a, b *Memory, addr, n uint64) (uint64, bool) {
	end := addr + n
	if end < addr {
		end = ^uint64(0)
	}
	lim := min(a.Size(), b.Size(), end)
	for addr < lim {
		pg, off := addr/PageSize, addr%PageSize
		k := min(PageSize-off, lim-addr)
		if a.pages[pg] != nil || b.pages[pg] != nil {
			if x, y := a.page(pg)[off:off+k], b.page(pg)[off:off+k]; !bytes.Equal(x, y) {
				for i := range x {
					if x[i] != y[i] {
						return addr + uint64(i), true
					}
				}
			}
		}
		addr += k
	}
	return addr, addr < end
}
