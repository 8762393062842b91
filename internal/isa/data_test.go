package isa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/mem"
)

// expand returns img's data section as dense bytes, failing t unless its
// runs are non-empty, ascending, disjoint and inside the section.
func expand(t testing.TB, img *Image) []byte {
	t.Helper()
	b := make([]byte, img.DataSize)
	at := uint64(0)
	for i, r := range img.Data {
		if len(r.Bytes) == 0 || r.Off < at || r.end() > img.DataSize {
			t.Fatalf("run %d (%d bytes at %d) is empty, overlaps run %d or leaves the %d-byte section",
				i, len(r.Bytes), r.Off, i-1, img.DataSize)
		}
		copy(b[r.Off:], r.Bytes)
		at = r.end()
	}
	return b
}

// denseSIMX is the SIMX writer spelled out over a dense data section: the
// reference WriteTo's bytes must equal.
func denseSIMX(img *Image, data []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(objMagic), objVersion)
	for _, v := range []uint64{
		img.Base, img.DataBase, img.Entry,
		uint64(len(img.Code)), uint64(len(data)), uint64(len(img.Symbols)),
	} {
		b = le.AppendUint64(b, v)
	}
	b = append(append(b, img.Code...), data...)
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(le.AppendUint32(b, uint32(len(n))), n...)
		b = le.AppendUint64(b, img.Symbols[n])
	}
	return b
}

// dataProgram is a data section FuzzDataSection decoded: its assembler
// source and the dense reference built from the same directives.
type dataProgram struct {
	src    string
	ref    []byte            // the section, relocated words still zero
	labels map[string]uint64 // data label -> offset
	relocs []dataRef         // .word symbol+addend slots
}

type dataRef struct {
	off    uint64
	sym    string
	addend int64
}

// dataRecord is the size of one directive record in a FuzzDataSection
// input: an opcode and three argument bytes.
const dataRecord = 4

// decodeData turns fuzz input into .byte, .word (numbers and labels),
// .space (with and without fill), .align, .ascii and .asciz directives,
// one labelled line per record, plus the dense section they lay out.
func decodeData(in []byte) dataProgram {
	nrec := min(len(in)/dataRecord, 64)
	p := dataProgram{labels: map[string]uint64{}}
	target := func(a byte) string {
		switch k := int(a) % (nrec + 2); k {
		case nrec:
			return "f" // a text label
		case nrec + 1:
			return "end"
		default:
			return fmt.Sprintf("l%d", k)
		}
	}
	var src strings.Builder
	src.WriteString("f:\tmovi r1, end\n\thalt\n.data\n")
	for i := 0; i < nrec; i++ {
		op, a, b, c := in[i*dataRecord], in[i*dataRecord+1], in[i*dataRecord+2], in[i*dataRecord+3]
		label := fmt.Sprintf("l%d", i)
		p.labels[label] = uint64(len(p.ref))
		fmt.Fprintf(&src, "%s: ", label)
		if len(p.ref) >= 1<<18 {
			src.WriteString("\n") // past the size limit: the label alone
			continue
		}
		switch op % 8 {
		case 0:
			fmt.Fprintf(&src, ".byte %d, %#x, %d\n", a, b, int8(c))
			p.ref = append(p.ref, a, b, c)
		case 1:
			v := int64(int16(uint16(a)<<8|uint16(b))) * int64(c)
			fmt.Fprintf(&src, ".word %d\n", v)
			p.ref = binary.LittleEndian.AppendUint64(p.ref, uint64(v))
		case 2:
			sym, add := target(a), int64(b)-128
			switch {
			case add > 0:
				fmt.Fprintf(&src, ".word %s+%d\n", sym, add)
			case add < 0:
				fmt.Fprintf(&src, ".word %s-%d\n", sym, -add)
			default:
				fmt.Fprintf(&src, ".word %s\n", sym)
			}
			p.relocs = append(p.relocs, dataRef{off: uint64(len(p.ref)), sym: sym, addend: add})
			p.ref = append(p.ref, make([]byte, 8)...)
		case 3, 4:
			n := int(a)<<6 | int(b&63)
			if op%8 == 3 {
				fmt.Fprintf(&src, ".space %d\n", n)
			} else {
				fmt.Fprintf(&src, ".space %d 0\n", n)
			}
			p.ref = append(p.ref, make([]byte, n)...)
		case 5:
			n := int(a)<<4 | int(b&15)
			fmt.Fprintf(&src, ".space %d %d\n", n, c)
			p.ref = append(p.ref, bytes.Repeat([]byte{c}, n)...)
		case 6:
			n := 1 << (a % 13)
			fmt.Fprintf(&src, ".align %d\n", n)
			for len(p.ref)%n != 0 {
				p.ref = append(p.ref, 0)
			}
		case 7:
			const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
			s := make([]byte, a%16)
			for j := range s {
				s[j] = alphabet[(int(b)+j*int(c|1))%len(alphabet)]
			}
			dir := ".ascii"
			if c&1 != 0 {
				dir = ".asciz"
			}
			fmt.Fprintf(&src, "%s %q\n", dir, s)
			p.ref = append(p.ref, s...)
			if c&1 != 0 {
				p.ref = append(p.ref, 0)
			}
		}
	}
	p.labels["end"] = uint64(len(p.ref))
	src.WriteString("end:\n")
	p.src = src.String()
	return p
}

// linked is p's dense section as Link at base must lay it out: every
// relocated word patched with its symbol's address.
func (p dataProgram) linked(base uint64) []byte {
	dataBase := base + PageSize // the text section is two instructions
	want := slices.Clone(p.ref)
	for _, r := range p.relocs {
		a := base // "f", the text label
		if off, ok := p.labels[r.sym]; ok {
			a = dataBase + off
		}
		binary.LittleEndian.PutUint64(want[r.off:], a+uint64(r.addend))
	}
	return want
}

// FuzzDataSection holds the data section's runs-plus-size form to a dense
// reference built from the same directives: at two link bases the
// expanded runs, the symbol offsets and the relocated words must match,
// WriteTo must write a dense writer's bytes, ReadImage must give the
// section back, and MapInto must leave memory as a dense load does, even
// over pages an earlier write backed. Linking the second base must not
// change the first image, which shares the module's runs.
func FuzzDataSection(f *testing.F) {
	f.Add([]byte{
		0, 1, 2, 3, // .byte
		3, 64, 0, 0, // .space 4096: a page-sized gap
		2, 0, 130, 0, // .word l0+2
		6, 6, 0, 0, // .align 64
		5, 2, 3, 0xa5, // .space 35 0xa5
		7, 5, 1, 1, // .asciz
		2, 255, 128, 0, // .word to a label or f
	})
	f.Add([]byte{
		4, 200, 0, 0, // .space 12800 0: gap across pages
		1, 0x80, 1, 3, // negative .word
		2, 1, 0, 0, // .word l1-128
		3, 0, 1, 0, // .space 1
	})
	f.Add([]byte{5, 255, 15, 0, 6, 12, 0, 0, 7, 0, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		p := decodeData(in)
		mod, err := Assemble(p.src)
		if err != nil {
			t.Fatalf("assembling:\n%s\n%v", p.src, err)
		}
		if mod.DataSize() != len(p.ref) {
			t.Fatalf("module data size %d, want %d", mod.DataSize(), len(p.ref))
		}
		bases := []uint64{0x10000, 0x7f000}
		imgs := make([]*Image, len(bases))
		for i, base := range bases {
			img, err := mod.Link(base)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = img
			want := p.linked(base)
			if img.DataBase != base+PageSize || img.DataSize != uint64(len(want)) {
				t.Fatalf("base %#x: data at %#x, %d bytes; want %#x, %d", base, img.DataBase, img.DataSize, base+PageSize, len(want))
			}
			if got := expand(t, img); !bytes.Equal(got, want) {
				t.Fatalf("base %#x: data section differs from the dense reference\n%s", base, p.src)
			}
			for label, off := range p.labels {
				if got := img.Symbols[label]; got != img.DataBase+off {
					t.Fatalf("base %#x: %s at %#x, want %#x", base, label, got, img.DataBase+off)
				}
			}

			var file bytes.Buffer
			n, err := img.WriteTo(&file)
			if err != nil || n != int64(file.Len()) {
				t.Fatalf("WriteTo = %d, %v for %d bytes", n, err, file.Len())
			}
			if !bytes.Equal(file.Bytes(), denseSIMX(img, want)) {
				t.Fatalf("base %#x: WriteTo differs from the dense writer", base)
			}
			back, err := ReadImage(&file)
			if err != nil {
				t.Fatal(err)
			}
			if back.DataSize != img.DataSize || len(back.Data) > 1 || !bytes.Equal(expand(t, back), want) {
				t.Fatalf("base %#x: ReadImage gave %d runs over %d bytes, want one dense run", base, len(back.Data), back.DataSize)
			}

			checkMapInto(t, img, want)
		}
		if got := expand(t, imgs[0]); !bytes.Equal(got, p.linked(bases[0])) {
			t.Fatal("linking a second base changed the first image's data")
		}
	})
}

// checkMapInto maps img over a memory whose pages around the data section
// an earlier write backed, and requires the same bytes and permissions a
// dense load of want leaves.
func checkMapInto(t *testing.T, img *Image, want []byte) {
	t.Helper()
	const size = 1 << 20
	dirty := bytes.Repeat([]byte{0xee}, 3*PageSize)
	at := img.DataBase + img.DataSize/2 - PageSize
	got, ref := mem.New(size), mem.New(size)
	for _, m := range []*mem.Memory{got, ref} {
		if err := m.LoadRaw(at, dirty); err != nil {
			t.Fatal(err)
		}
	}
	if err := img.MapInto(got); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		ref.LoadRaw(img.Base, img.Code),
		ref.Protect(img.Base, max(uint64(len(img.Code)), 1), mem.PermRX),
		ref.LoadRaw(img.DataBase, want),
		ref.Protect(img.DataBase, max(uint64(len(want)), 1), mem.PermRW),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if at, differ := mem.FirstDiff(got, ref, 0, size); differ {
		t.Fatalf("MapInto and a dense load differ at %#x", at)
	}
	for a := uint64(0); a < size; a += PageSize {
		if got.PermAt(a) != ref.PermAt(a) {
			t.Fatalf("page %#x: MapInto gave %s, a dense load %s", a, got.PermAt(a), ref.PermAt(a))
		}
		if ref.PageGen(a) != 0 && got.PageGen(a) == 0 {
			t.Fatalf("page %#x: MapInto left its write generation at zero", a)
		}
	}
}

// TestDataSectionCap: Assemble caps the data section at the object
// format's limit, so the largest section it accepts is one ReadImage
// reads back, and one byte more is an AsmError however it is reached.
func TestDataSectionCap(t *testing.T) {
	mod, err := Assemble(fmt.Sprintf("halt\n.data\nbig: .space %d", objMaxSection))
	if err != nil {
		t.Fatalf("a %d-byte data section: %v", objMaxSection, err)
	}
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	r, w := io.Pipe()
	go func() {
		_, err := img.WriteTo(w)
		w.CloseWithError(err)
	}()
	back, err := ReadImage(r)
	r.Close()
	if err != nil {
		t.Fatalf("the largest linkable image does not read back: %v", err)
	}
	if back.DataSize != objMaxSection || len(back.Data) != 1 || len(back.Data[0].Bytes) != objMaxSection {
		t.Fatalf("read back %d bytes in %d runs, want %d in one", back.DataSize, len(back.Data), objMaxSection)
	}

	for name, src := range map[string]string{
		"one .space":       fmt.Sprintf(".data\n.space %d", objMaxSection+1),
		"filled .space":    fmt.Sprintf(".data\n.space %d 7", objMaxSection+1),
		".byte then space": fmt.Sprintf(".data\n.byte 1\n.space %d", objMaxSection),
		"space then .word": fmt.Sprintf(".data\n.space %d\n.word 1", objMaxSection-7),
		"space then ascii": fmt.Sprintf(".data\n.space %d\n.asciz \"\"", objMaxSection),
		".align":           fmt.Sprintf(".data\n.byte 1\n.align %d", uint64(objMaxSection)*2),
	} {
		_, err := Assemble(src)
		var ae *AsmError
		if !errors.As(err, &ae) {
			t.Errorf("%s: %v, want an AsmError", name, err)
		}
	}
}
