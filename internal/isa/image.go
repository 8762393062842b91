package isa

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// PageSize is the unit of memory protection in the simulated machine.
// Sections are page-aligned so DEP can mark code executable and data
// non-executable independently.
const PageSize = 4096

// Image is a Module linked at a concrete load base: encoded code bytes,
// the data section, and an absolute symbol table. Images are what the
// loader maps into machine memory and what the gadget scanner inspects.
type Image struct {
	Base     uint64            // load address of the code section
	Code     []byte            // encoded instructions (len % InstrSize == 0)
	DataBase uint64            // load address of the data section
	DataSize uint64            // data section size in bytes
	Data     []Run             // the data section's initialised runs (read-only)
	Entry    uint64            // absolute entry point
	Symbols  map[string]uint64 // absolute symbol addresses
}

// Run is one stretch of initialised bytes in a data section. A section is
// its size plus its runs, in ascending order and disjoint; every byte no
// run covers is zero and is never stored, so a `.space` table costs
// nothing until the program writes it. An Image shares its runs with the
// Module it was linked from and with every other Image of that Module, so
// the bytes must not be written.
type Run struct {
	Off   uint64 // offset from the start of the section
	Bytes []byte
}

func (r Run) end() uint64 { return r.Off + uint64(len(r.Bytes)) }

// Link resolves the module at the given base address. The code section is
// placed at base and the data section at the next page boundary after the
// code. Base must be page-aligned. The code is encoded anew for every
// base; the data runs are the module's own, except that a run holding a
// relocated `.word` is copied before the word is patched.
func (m *Module) Link(base uint64) (*Image, error) {
	if base%PageSize != 0 {
		return nil, fmt.Errorf("isa: link base %#x not page-aligned", base)
	}
	codeSize := uint64(len(m.code)) * InstrSize
	dataBase := base + alignUp(codeSize, PageSize)

	symAddr := func(name string) (uint64, error) {
		s, ok := m.symbols[name]
		if !ok {
			return 0, fmt.Errorf("isa: undefined symbol %q", name)
		}
		if s.isEqu {
			return uint64(s.value), nil
		}
		if s.sec == secText {
			return base + s.off, nil
		}
		return dataBase + s.off, nil
	}

	img := &Image{
		Base:     base,
		DataBase: dataBase,
		Code:     make([]byte, codeSize),
		DataSize: m.dataSize,
		Data:     m.data,
		Symbols:  make(map[string]uint64, len(m.symbols)),
	}
	for name := range m.symbols {
		a, err := symAddr(name)
		if err != nil {
			return nil, err
		}
		img.Symbols[name] = a
	}

	// Apply code relocations onto copies of the instructions, then encode.
	code := make([]Instruction, len(m.code))
	copy(code, m.code)
	for _, r := range m.codeRel {
		a, err := symAddr(r.sym)
		if err != nil {
			return nil, errf(r.line, "%v", err)
		}
		code[r.instr].Imm += int64(a)
	}
	for i, in := range code {
		if err := in.Encode(img.Code[i*InstrSize:]); err != nil {
			return nil, fmt.Errorf("isa: instruction %d (%s): %w", i, in, err)
		}
	}
	if len(m.dataRel) > 0 {
		// Relocations ascend by offset and each lies inside one run
		// (the 8 bytes its .word stored), so one cursor finds them all.
		img.Data = slices.Clone(m.data)
		run, copied := 0, -1
		for _, r := range m.dataRel {
			a, err := symAddr(r.sym)
			if err != nil {
				return nil, errf(r.line, "%v", err)
			}
			for img.Data[run].end() <= r.off {
				run++
			}
			d := &img.Data[run]
			if copied != run {
				d.Bytes, copied = slices.Clone(d.Bytes), run
			}
			binary.LittleEndian.PutUint64(d.Bytes[r.off-d.Off:], a+uint64(r.addend))
		}
	}

	if ep, ok := img.Symbols[m.entryName]; ok {
		img.Entry = ep
	} else {
		img.Entry = base
	}
	return img, nil
}

// MapInto maps the image into m at its link addresses: the code pages
// read-execute and the data pages read-write (DEP). Only the data's runs
// are copied. The rest of the section is cleared where an earlier write
// backed it and left unbacked elsewhere, so m reads exactly as if every
// byte of the section had been stored, and every page the image covers
// has its write generation bumped.
func (img *Image) MapInto(m *mem.Memory) error {
	if err := m.LoadRaw(img.Base, img.Code); err != nil {
		return err
	}
	if err := m.Protect(img.Base, max(uint64(len(img.Code)), 1), mem.PermRX); err != nil {
		return err
	}
	if err := m.ZeroRaw(img.DataBase, img.DataSize); err != nil {
		return err
	}
	for _, r := range img.Data {
		if err := m.LoadRaw(img.DataBase+r.Off, r.Bytes); err != nil {
			return err
		}
	}
	return m.Protect(img.DataBase, max(img.DataSize, 1), mem.PermRW)
}

// NumInstructions returns the number of instructions in the module.
func (m *Module) NumInstructions() int { return len(m.code) }

// DataSize returns the size of the module's data section in bytes.
func (m *Module) DataSize() int { return int(m.dataSize) }

// Symbol returns the absolute address of a linked symbol.
func (img *Image) Symbol(name string) (uint64, bool) {
	a, ok := img.Symbols[name]
	return a, ok
}

// MustSymbol is Symbol that panics if the symbol is missing.
func (img *Image) MustSymbol(name string) uint64 {
	a, ok := img.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: missing symbol %q", name))
	}
	return a
}

// End returns the first address past the image (data end, page-aligned).
func (img *Image) End() uint64 {
	return img.DataBase + alignUp(img.DataSize, PageSize)
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
