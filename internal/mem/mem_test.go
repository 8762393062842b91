package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newMapped(t *testing.T, size uint64, p Perm) *Memory {
	t.Helper()
	m := New(size)
	if err := m.Protect(0, size, p); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newMapped(t, 64<<10, PermRW)
	if err := m.Write64(128, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(128)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafe {
		t.Errorf("got %#x", v)
	}
	if err := m.Write8(7, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := m.Read8(7)
	if err != nil || b != 0xAB {
		t.Errorf("byte = %#x, %v", b, err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := newMapped(t, PageSize, PermRW)
	if err := m.Write64(0, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	b0, _ := m.Read8(0)
	b7, _ := m.Read8(7)
	if b0 != 0x08 || b7 != 0x01 {
		t.Errorf("layout not little-endian: b0=%#x b7=%#x", b0, b7)
	}
}

// Property: Write64 then Read64 at any in-range address returns the value.
func TestQuickWordRoundTrip(t *testing.T) {
	m := newMapped(t, 1<<20, PermRW)
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		addr := uint64(rng.Intn(1<<20 - 8))
		v := rng.Uint64()
		if err := m.Write64(addr, v); err != nil {
			return false
		}
		got, err := m.Read64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFaultKinds(t *testing.T) {
	m := New(2 * PageSize)
	// Unmapped page.
	if _, err := m.Read64(0); faultKind(t, err) != FaultUnmapped {
		t.Errorf("unmapped read: %v", err)
	}
	// Read-only page rejects writes.
	if err := m.Protect(0, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	if err := m.Write64(0, 1); faultKind(t, err) != FaultWrite {
		t.Errorf("write to r/o page: %v", err)
	}
	// Write-only (no read bit) rejects reads.
	if err := m.Protect(PageSize, PageSize, PermWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read64(PageSize); faultKind(t, err) != FaultRead {
		t.Errorf("read of non-readable page: %v", err)
	}
	// DEP: fetch from non-exec page.
	if _, err := m.Fetch(0, 16); faultKind(t, err) != FaultExec {
		t.Errorf("fetch from NX page: %v", err)
	}
	// Out of range entirely.
	if _, err := m.Read64(1 << 40); faultKind(t, err) != FaultUnmapped {
		t.Errorf("far out-of-range: %v", err)
	}
	// Overflowing range.
	if err := m.Protect(1<<40, 8, PermRW); err == nil {
		t.Error("Protect accepted out-of-range region")
	}
}

func faultKind(t *testing.T, err error) FaultKind {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v is not a *Fault", err)
	}
	return f.Kind
}

func TestCrossPagePermissionCheck(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.Protect(0, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// Word straddling a mapped and an unmapped page must fault.
	if err := m.Write64(PageSize-4, 1); err == nil {
		t.Error("cross-page write into unmapped page succeeded")
	}
}

func TestFetchRequiresExec(t *testing.T) {
	m := New(2 * PageSize)
	if err := m.Protect(0, PageSize, PermRX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fetch(0, 16); err != nil {
		t.Errorf("fetch from RX page failed: %v", err)
	}
	// RX page rejects writes (code is immutable, W^X).
	if err := m.Write64(0, 1); err == nil {
		t.Error("write to RX page succeeded")
	}
}

func TestReadCString(t *testing.T) {
	m := newMapped(t, PageSize, PermRW)
	if err := m.WriteBytes(10, []byte("hello\x00")); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(10, 32)
	if err != nil || s != "hello" {
		t.Errorf("ReadCString = %q, %v", s, err)
	}
	if _, err := m.ReadCString(10, 3); err == nil {
		t.Error("unterminated string within limit accepted")
	}
}

func TestLoadRawBypassesPerms(t *testing.T) {
	m := New(PageSize) // fully unmapped
	if err := m.LoadRaw(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, err := m.PeekRaw(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[2] != 3 {
		t.Errorf("PeekRaw = %v", b)
	}
	if v, err := m.Peek64(0); err != nil || v&0xffffff != 0x030201 {
		t.Errorf("Peek64 = %#x, %v", v, err)
	}
}

// TestLoadRawZerosStayUnbacked: zeros loaded onto a never-written page,
// as zero bytes through LoadRaw or without bytes through ZeroRaw, back
// nothing (the page already reads as zero) but still bump its generation;
// zeros onto a backed page overwrite it; and a Reset after both leaves a
// clean memory whose pages come back zeroed.
func TestLoadRawZerosStayUnbacked(t *testing.T) {
	for name, zeros := range map[string]func(m *Memory, addr, n uint64) error{
		"LoadRaw": func(m *Memory, addr, n uint64) error { return m.LoadRaw(addr, make([]byte, n)) },
		"ZeroRaw": (*Memory).ZeroRaw,
	} {
		t.Run(name, func(t *testing.T) { zerosStayUnbacked(t, zeros) })
	}
}

func zerosStayUnbacked(t *testing.T, zeros func(m *Memory, addr, n uint64) error) {
	m := New(3 * PageSize)
	if err := m.LoadRaw(0, []byte{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := zeros(m, 1, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if m.pages[0] == nil || m.pages[1] != nil || m.pages[2] != nil {
		t.Fatalf("backed pages after zero loads: %v %v %v", m.pages[0] != nil, m.pages[1] != nil, m.pages[2] != nil)
	}
	if b, _ := m.PeekRaw(0, 3); b[0] != 7 || b[1] != 0 || b[2] != 0 {
		t.Errorf("zeros did not overwrite the backed page: %v", b)
	}
	for pg, want := range []uint64{2, 1, 1} {
		if got := m.PageGen(uint64(pg) * PageSize); got != want {
			t.Errorf("page %d generation %d, want %d", pg, got, want)
		}
	}

	m.Reset(m.Size())
	for pg := range m.pages {
		if m.pages[pg] != nil || m.gen[pg] != 0 {
			t.Fatalf("page %d backed or at a nonzero generation after Reset", pg)
		}
	}
	if err := m.Protect(0, m.Size(), PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write8(PageSize+1, 1); err != nil { // draws the released page
		t.Fatal(err)
	}
	all, err := m.PeekRaw(0, m.Size())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, m.Size())
	want[PageSize+1] = 1
	if !bytes.Equal(all, want) {
		t.Error("a page released by Reset came back dirty")
	}
}

// TestResetResizesLikeNew: Reset(size) leaves a used memory in the state
// New(size) builds, whether size shrinks it, grows it back or keeps its
// page count: the same Size, permissions, generations and (no) backing.
// A kept page count keeps the tables, and pages backed before any resize
// are reused from the free list.
func TestResetResizesLikeNew(t *testing.T) {
	dirty := func(m *Memory) {
		t.Helper()
		if err := m.Protect(0, m.Size(), PermRWX); err != nil {
			t.Fatal(err)
		}
		for addr := uint64(1); addr < m.Size(); addr += PageSize {
			if err := m.Write8(addr, 0xAB); err != nil {
				t.Fatal(err)
			}
		}
		m.OnWrite = func(uint64, int) {}
	}
	m := New(8 * PageSize)
	for _, size := range []uint64{3*PageSize + 1, 8 * PageSize, 8*PageSize - 100} {
		dirty(m)
		perms := &m.perms[0]
		m.Reset(size)
		want := New(size)
		if m.Size() != want.Size() {
			t.Fatalf("Reset(%d): Size %d, New's %d", size, m.Size(), want.Size())
		}
		if !slices.Equal(m.perms, want.perms) || !slices.Equal(m.gen, want.gen) {
			t.Errorf("Reset(%d): perms %v gens %v, New's %v %v", size, m.perms, m.gen, want.perms, want.gen)
		}
		if slices.ContainsFunc(m.pages, func(p *[PageSize]byte) bool { return p != nil }) || m.OnWrite != nil {
			t.Errorf("Reset(%d) left a page backed or the OnWrite observer set", size)
		}
		if kept := &m.perms[0] == perms; kept != (size == 8*PageSize-100) {
			t.Errorf("Reset(%d) kept its tables: %v", size, kept)
		}
	}
	if len(m.free) != 8 {
		t.Errorf("free list holds %d pages after three resets, want the 8 first backed", len(m.free))
	}
}

func TestWriteBytesAndReadBytes(t *testing.T) {
	m := newMapped(t, PageSize, PermRW)
	data := []byte{9, 8, 7, 6}
	if err := m.WriteBytes(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("ReadBytes = %v", got)
		}
	}
	// Mutating the returned slice must not alias memory.
	got[0] = 0xFF
	b, _ := m.Read8(100)
	if b != 9 {
		t.Error("ReadBytes aliases internal memory")
	}
	if err := m.WriteBytes(100, nil); err != nil {
		t.Errorf("empty WriteBytes: %v", err)
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || PermRX.String() != "r-x" || Perm(0).String() != "---" {
		t.Errorf("perm strings: %s %s %s", PermRWX, PermRX, Perm(0))
	}
}

func TestSizeRoundsToPages(t *testing.T) {
	m := New(100)
	if m.Size() != PageSize {
		t.Errorf("size = %d, want %d", m.Size(), PageSize)
	}
}

func TestPermAt(t *testing.T) {
	m := New(2 * PageSize)
	_ = m.Protect(PageSize, PageSize, PermRX)
	if m.PermAt(0) != 0 {
		t.Error("unmapped page has perms")
	}
	if m.PermAt(PageSize+5) != PermRX {
		t.Error("mapped page perms wrong")
	}
	if m.PermAt(1<<30) != 0 {
		t.Error("out-of-range PermAt should be 0")
	}
}

// BenchmarkMemAccess measures the word accessors every guest load and
// store goes through: within a backed page, from a page never written
// (served by the shared zero page, so read only), and straddling a page
// boundary (the byte-copy path).
func BenchmarkMemAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		addr  uint64
		write bool
	}{
		{"backed", 64, true},
		{"unwritten", 3*PageSize + 64, false},
		{"straddle", PageSize - 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := New(4 * PageSize)
			if err := m.Protect(0, m.Size(), PermRW); err != nil {
				b.Fatal(err)
			}
			if bc.write {
				if err := m.Write64(bc.addr, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := m.Read64(bc.addr)
				if err != nil {
					b.Fatal(err)
				}
				if bc.write {
					if err := m.Write64(bc.addr, v+1); err != nil {
						b.Fatal(err)
					}
				}
				benchWord += v
			}
		})
	}
}

// benchWord keeps BenchmarkMemAccess's reads live.
var benchWord uint64
