package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// flatMem is the reference model for FuzzMemory: the whole address space
// as one flat byte slice, with the same permission, fault and generation
// rules Memory documents. It is deliberately the simplest possible
// spelling of those rules, so any disagreement points at Memory's paging.
type flatMem struct {
	data  []byte
	perms []Perm
	gen   []uint64
}

func newFlat(size uint64) *flatMem {
	size = (size + PageSize - 1) &^ (PageSize - 1)
	return &flatMem{
		data:  make([]byte, size),
		perms: make([]Perm, size/PageSize),
		gen:   make([]uint64, size/PageSize),
	}
}

func (f *flatMem) size() uint64 { return uint64(len(f.data)) }

func (f *flatMem) inRange(addr, n uint64) bool {
	end := addr + n
	return end >= addr && end <= f.size()
}

func (f *flatMem) check(addr, n uint64, need Perm, kind FaultKind) error {
	if !f.inRange(addr, n) || (n == 0 && addr >= f.size()) {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	for a := addr; a < addr+n; a++ {
		p := f.perms[a/PageSize]
		if p == 0 {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		if p&need == 0 {
			return &Fault{Kind: kind, Addr: addr}
		}
	}
	return nil
}

func (f *flatMem) bump(addr, n uint64) {
	for pg := addr / PageSize; pg <= (addr+n-1)/PageSize; pg++ {
		f.gen[pg]++
	}
}

func (f *flatMem) store(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if err := f.check(addr, uint64(len(b)), PermWrite, FaultWrite); err != nil {
		return err
	}
	copy(f.data[addr:], b)
	f.bump(addr, uint64(len(b)))
	return nil
}

func (f *flatMem) load(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if !f.inRange(addr, uint64(len(b))) {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	copy(f.data[addr:], b)
	f.bump(addr, uint64(len(b)))
	return nil
}

func (f *flatMem) protect(addr, n uint64, p Perm) error {
	if n == 0 {
		return nil
	}
	if !f.inRange(addr, n) {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	for pg := addr / PageSize; pg <= (addr+n-1)/PageSize; pg++ {
		f.perms[pg] = p
		f.gen[pg]++
	}
	return nil
}

func (f *flatMem) read(addr, n uint64, need Perm, kind FaultKind) ([]byte, error) {
	if err := f.check(addr, n, need, kind); err != nil {
		return nil, err
	}
	return f.data[addr : addr+n], nil
}

// fetchNoCopy refuses any range that does not lie within one page,
// including a zero-length one at a page's first byte.
func (f *flatMem) fetchNoCopy(addr, n uint64) ([]byte, uint64, error) {
	end, pg := addr+n, addr/PageSize
	if end < addr || end > f.size() || (end-1)/PageSize != pg {
		return nil, 0, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if p := f.perms[pg]; p&PermExec == 0 {
		if p == 0 {
			return nil, 0, &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		return nil, 0, &Fault{Kind: FaultExec, Addr: addr}
	}
	return f.data[addr:end], f.gen[pg], nil
}

func (f *flatMem) peek(addr, n uint64) ([]byte, error) {
	if !f.inRange(addr, n) {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	return f.data[addr : addr+n], nil
}

func (f *flatMem) pageGen(addr uint64) uint64 {
	if addr >= f.size() {
		return 0
	}
	return f.gen[addr/PageSize]
}

// firstDiff is FirstDiff spelled out byte by byte over two flat spaces.
func firstDiff(a, b []byte, addr, n uint64) (uint64, bool) {
	end := addr + n
	if end < addr {
		end = ^uint64(0)
	}
	lim := min(uint64(len(a)), uint64(len(b)))
	for ; addr < end; addr++ {
		if addr >= lim || a[addr] != b[addr] {
			return addr, true
		}
	}
	return 0, false
}

// sameFault reports whether two errors are the same outcome: both nil, or
// both *Fault with the same kind and address.
func sameFault(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var g, w *Fault
	return errors.As(got, &g) && errors.As(want, &w) && *g == *w
}

// Memory operations FuzzMemory decodes, one per input record.
const (
	opWrite8 = iota
	opWrite64
	opWriteBytes
	opLoadRaw
	opProtect
	opRead8
	opRead64
	opReadBytes
	opPeekRaw
	opPeek64
	opFetch
	opFetchNoCopy
	opPageGen
	opFirstDiff
	opReset
	numOps
)

const fuzzPages = 4

// fuzzAddr maps a selector and an offset onto the addresses where paging
// bugs live: anywhere in (or just past) the space, either side of a page
// boundary, the last bytes of the space, and the top of the uint64 range.
func fuzzAddr(sel byte, off uint16) uint64 {
	size := uint64(fuzzPages * PageSize)
	switch sel % 4 {
	case 0:
		return uint64(off) % (size + 2*PageSize)
	case 1:
		return uint64(off&0xff%(fuzzPages+1))*PageSize + uint64(int8(off>>8))
	case 2:
		return size - uint64(off%24)
	}
	return ^uint64(0) - uint64(off%24)
}

// fuzzLen picks an access length: mostly short (including zero), some
// spanning several pages.
func fuzzLen(sel, n byte) uint64 {
	if sel&0x80 != 0 {
		return uint64(n) * 61
	}
	return uint64(n % 24)
}

func fuzzBytes(seed byte, n uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*37
	}
	return b
}

// fuzzZeros is the selector bit (free in fuzzAddr and fuzzLen) that makes
// opLoadRaw load zeros instead of fuzzBytes, so LoadRaw's zero skip runs
// on backed pages, which must be overwritten, and on unbacked ones. With
// an odd value byte the zeros go through ZeroRaw, which must act as
// LoadRaw of that many zero bytes.
const fuzzZeros = 0x40

// FuzzMemory applies a decoded sequence of calls to Memory and to the
// flat reference model and requires identical values, faults, write
// generations and OnWrite reports, then compares the whole space and
// checks that the shared zero page was never written.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{
		opWrite64, 1, 1, 0xfd, 0, 0x5a, // straddles page 0/1
		opRead64, 1, 1, 0xfc, 0, 0,
		opFetch, 1, 2, 0xfc, 16, 0, // straddles page 1/2
		opFetchNoCopy, 1, 2, 0x10, 8, 0, // never-written page
		opFirstDiff, 0x80, 0, 0, 0xff, 0,
	})
	f.Add([]byte{
		opLoadRaw, 2, 8, 0, 8, 0x11, // last bytes of the space
		opProtect, 0x81, 1, 0, 70, byte(PermRX),
		opWrite64, 1, 1, 0xfc, 0, 0x22, // into a page just made RX
		opPeekRaw, 0x80, 0, 0, 0xff, 0,
		opWrite8, 3, 0, 0, 0, 1, // wraps past the top
	})
	f.Add([]byte{
		opProtect, 0x80, 0, 0, 0xff, 0, // unmap everything
		opWriteBytes, 0x81, 1, 0x80, 150, 0x33,
		opReadBytes, 0x80, 0, 0, 0xff, 0,
		opPageGen, 1, 2, 0, 0, 0,
		opPeek64, 2, 8, 0, 0, 0,
	})
	f.Add([]byte{
		opWrite64, 1, 1, 0x10, 0, 0x44, // back page 1
		opReset, 0, 0, 0, 0, 0,
		opProtect, 0x80, 0, 0, 0xff, byte(PermRW),
		opWrite8, 1, 2, 0, 0, 0x55, // reuses the released page
		opReadBytes, 0x81, 2, 0, 70, 0,
		opPageGen, 1, 1, 0, 0, 0,
	})
	f.Add([]byte{
		opWriteBytes, 0x81, 1, 0x80, 69, 0x66, // back pages 0 and 1
		opLoadRaw, 0xc1, 1, 0x80, 100, 0, // zeros over both, then into unbacked page 2
		opReadBytes, 0x81, 1, 0x80, 69, 0,
		opFetchNoCopy, 1, 2, 0x10, 8, 0,
		opPageGen, 1, 2, 0, 0, 0,
		opFirstDiff, 0x80, 0, 0, 0xff, 0,
	})
	f.Add([]byte{
		opWriteBytes, 0x81, 1, 0x80, 69, 0x66, // back pages 0 and 1
		opLoadRaw, 0xc1, 1, 0x80, 100, 1, // ZeroRaw over both, then into unbacked page 2
		opReadBytes, 0x81, 1, 0x80, 69, 0,
		opPageGen, 1, 2, 0, 0, 0,
		opLoadRaw, 0xc3, 0, 0, 20, 1, // ZeroRaw past the top
		opFirstDiff, 0x80, 0, 0, 0xff, 0,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := New(fuzzPages * PageSize)
		ref := newFlat(fuzzPages * PageSize)
		var gotWrites, wantWrites [][2]uint64
		// Start from mixed permissions so straddles cross RW|RWX|RX|R
		// boundaries; Protect records can unmap pages from there.
		for pg, p := range []Perm{PermRW, PermRWX, PermRX, PermRead} {
			addr := uint64(pg) * PageSize
			if err := m.Protect(addr, PageSize, p); err != nil {
				t.Fatal(err)
			}
			if err := ref.protect(addr, PageSize, p); err != nil {
				t.Fatal(err)
			}
		}
		onWrite := func(addr uint64, n int) { gotWrites = append(gotWrites, [2]uint64{addr, uint64(n)}) }
		m.OnWrite = onWrite

		// other is FirstDiff's second operand: one page smaller, with
		// one page backed but zero (a pattern loaded, then zeros over
		// it) and one holding a pattern.
		other := New((fuzzPages - 1) * PageSize)
		otherRef := make([]byte, (fuzzPages-1)*PageSize)
		if err := other.LoadRaw(PageSize, fuzzBytes(1, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := other.LoadRaw(PageSize, make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}
		pattern := fuzzBytes(0x5a, 64)
		if err := other.LoadRaw(2*PageSize+100, pattern); err != nil {
			t.Fatal(err)
		}
		copy(otherRef[2*PageSize+100:], pattern)

		for len(in) >= 6 {
			op, sel := in[0]%numOps, in[1]
			addr := fuzzAddr(sel, binary.LittleEndian.Uint16(in[2:]))
			n, val := fuzzLen(sel, in[4]), in[5]
			in = in[6:]

			switch op {
			case opWrite8:
				err := m.Write8(addr, val)
				want := ref.store(addr, []byte{val})
				if want == nil {
					wantWrites = append(wantWrites, [2]uint64{addr, 1})
				}
				if !sameFault(err, want) {
					t.Fatalf("Write8(%#x): %v, want %v", addr, err, want)
				}
			case opWrite64:
				v := uint64(val)*0x0101010101010101 ^ addr
				err := m.Write64(addr, v)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				want := ref.store(addr, b[:])
				if want == nil {
					wantWrites = append(wantWrites, [2]uint64{addr, 8})
				}
				if !sameFault(err, want) {
					t.Fatalf("Write64(%#x): %v, want %v", addr, err, want)
				}
			case opWriteBytes:
				b := fuzzBytes(val, n)
				err := m.WriteBytes(addr, b)
				want := ref.store(addr, b)
				if want == nil && n > 0 {
					wantWrites = append(wantWrites, [2]uint64{addr, n})
				}
				if !sameFault(err, want) {
					t.Fatalf("WriteBytes(%#x, %d): %v, want %v", addr, n, err, want)
				}
			case opLoadRaw:
				b := fuzzBytes(val, n)
				if sel&fuzzZeros != 0 {
					b = make([]byte, n)
				}
				var err error
				if sel&fuzzZeros != 0 && val&1 != 0 {
					err = m.ZeroRaw(addr, n)
				} else {
					err = m.LoadRaw(addr, b)
				}
				if want := ref.load(addr, b); !sameFault(err, want) {
					t.Fatalf("LoadRaw(%#x, %d) (zeros %v): %v, want %v", addr, n, sel&fuzzZeros != 0, err, want)
				}
			case opProtect:
				p := Perm(val) & PermRWX
				if err, want := m.Protect(addr, n, p), ref.protect(addr, n, p); !sameFault(err, want) {
					t.Fatalf("Protect(%#x, %d, %s): %v, want %v", addr, n, p, err, want)
				}
			case opRead8:
				got, err := m.Read8(addr)
				want, werr := ref.read(addr, 1, PermRead, FaultRead)
				if !sameFault(err, werr) || (werr == nil && got != want[0]) {
					t.Fatalf("Read8(%#x) = %#x, %v; want %x, %v", addr, got, err, want, werr)
				}
			case opRead64:
				got, err := m.Read64(addr)
				want, werr := ref.read(addr, 8, PermRead, FaultRead)
				if !sameFault(err, werr) || (werr == nil && got != binary.LittleEndian.Uint64(want)) {
					t.Fatalf("Read64(%#x) = %#x, %v; want %x, %v", addr, got, err, want, werr)
				}
			case opReadBytes:
				got, err := m.ReadBytes(addr, n)
				want, werr := ref.read(addr, n, PermRead, FaultRead)
				if !sameFault(err, werr) || !bytes.Equal(got, want) {
					t.Fatalf("ReadBytes(%#x, %d) = %x, %v; want %x, %v", addr, n, got, err, want, werr)
				}
			case opPeekRaw:
				got, err := m.PeekRaw(addr, n)
				want, werr := ref.peek(addr, n)
				if !sameFault(err, werr) || !bytes.Equal(got, want) {
					t.Fatalf("PeekRaw(%#x, %d) = %x, %v; want %x, %v", addr, n, got, err, want, werr)
				}
			case opPeek64:
				got, err := m.Peek64(addr)
				want, werr := ref.peek(addr, 8)
				if !sameFault(err, werr) || (werr == nil && got != binary.LittleEndian.Uint64(want)) {
					t.Fatalf("Peek64(%#x) = %#x, %v; want %x, %v", addr, got, err, want, werr)
				}
			case opFetch:
				got, err := m.Fetch(addr, n)
				want, werr := ref.read(addr, n, PermExec, FaultExec)
				if !sameFault(err, werr) || !bytes.Equal(got, want) {
					t.Fatalf("Fetch(%#x, %d) = %x, %v; want %x, %v", addr, n, got, err, want, werr)
				}
				if cap(got) != len(got) {
					t.Fatalf("Fetch(%#x, %d) view has spare capacity %d", addr, n, cap(got))
				}
			case opFetchNoCopy:
				got, gen, err := m.FetchNoCopy(addr, n)
				want, wgen, werr := ref.fetchNoCopy(addr, n)
				if !sameFault(err, werr) || !bytes.Equal(got, want) || gen != wgen || cap(got) != len(got) {
					t.Fatalf("FetchNoCopy(%#x, %d) = %x gen %d cap %d, %v; want %x gen %d, %v",
						addr, n, got, gen, cap(got), err, want, wgen, werr)
				}
			case opPageGen:
				if got, want := m.PageGen(addr), ref.pageGen(addr); got != want {
					t.Fatalf("PageGen(%#x) = %d, want %d", addr, got, want)
				}
			case opFirstDiff:
				at, differ := FirstDiff(m, other, addr, n)
				wat, wdiffer := firstDiff(ref.data, otherRef, addr, n)
				if differ != wdiffer || (differ && at != wat) {
					t.Fatalf("FirstDiff(%#x, %d) = %#x, %v; want %#x, %v", addr, n, at, differ, wat, wdiffer)
				}
			case opReset:
				// A reset memory is a new one: all zero, unmapped,
				// generation zero, unobserved. Its recycled pages must
				// come back zeroed when later stores back them again.
				m.Reset(m.Size())
				if m.OnWrite != nil {
					t.Fatal("Reset kept the OnWrite observer")
				}
				m.OnWrite = onWrite
				*ref = *newFlat(ref.size())
			}
		}

		if len(gotWrites) != len(wantWrites) {
			t.Fatalf("OnWrite saw %d stores, want %d", len(gotWrites), len(wantWrites))
		}
		for i := range gotWrites {
			if gotWrites[i] != wantWrites[i] {
				t.Fatalf("OnWrite call %d = %v, want %v", i, gotWrites[i], wantWrites[i])
			}
		}
		all, err := m.PeekRaw(0, m.Size())
		if err != nil || !bytes.Equal(all, ref.data) {
			t.Fatalf("final contents differ from the model (%v)", err)
		}
		for pg := uint64(0); pg < fuzzPages; pg++ {
			if m.PageGen(pg*PageSize) != ref.gen[pg] {
				t.Fatalf("page %d generation %d, want %d", pg, m.PageGen(pg*PageSize), ref.gen[pg])
			}
		}
		if zeroPage != [PageSize]byte{} {
			t.Fatal("the shared zero page was written")
		}
	})
}
