package isa

import (
	"fmt"
	"strings"
)

// DisasmAll decodes every instruction in code (which must be a whole
// number of InstrSize slots) and renders one line per instruction,
// prefixed with the absolute address starting at base. Slots that fail to
// decode render as "??".
func DisasmAll(code []byte, base uint64) string {
	var b strings.Builder
	for off := 0; off+InstrSize <= len(code); off += InstrSize {
		addr := base + uint64(off)
		in, err := Decode(code[off:])
		if err != nil {
			fmt.Fprintf(&b, "%#010x: ??\n", addr)
			continue
		}
		fmt.Fprintf(&b, "%#010x: %s\n", addr, in)
	}
	return b.String()
}

// Slots is the decode of every whole InstrSize-aligned slot of a code
// image: the one whole-image decode that CFG recovery and the gadget
// scanner both read.
type Slots struct {
	// Instrs holds slot i's instruction, or the zero Instruction where
	// the slot is not canonical code (junk bytes, data mapped
	// executable, a mid-rewrite SMC slot); Valid tells the two apart.
	Instrs []Instruction
	// Truncated is the number of trailing bytes that do not fill a slot
	// (a truncated final instruction).
	Truncated int
	valid     []uint64 // bit i set when slot i decodes canonically
}

// Valid reports whether slot i decodes canonically.
func (s *Slots) Valid(i int) bool { return s.valid[i/64]&(1<<(i%64)) != 0 }

// DecodeSlots decodes every whole InstrSize-aligned slot of code. Unlike
// DecodeAll it does not stop at the first invalid slot: static analysis
// over images that interleave code and data needs the full per-slot
// validity map, and the gadget scanner needs every decodable suffix
// regardless of the junk around it.
func DecodeSlots(code []byte) *Slots {
	n := len(code) / InstrSize
	s := &Slots{
		Instrs:    make([]Instruction, n),
		Truncated: len(code) - n*InstrSize,
		valid:     make([]uint64, (n+63)/64),
	}
	for i := range s.Instrs {
		if in, err := Decode(code[i*InstrSize:]); err == nil {
			s.Instrs[i] = in
			s.valid[i/64] |= 1 << (i % 64)
		}
	}
	return s
}

// DecodeAll decodes code into a slice of instructions, failing on the
// first invalid slot.
func DecodeAll(code []byte) ([]Instruction, error) {
	if len(code)%InstrSize != 0 {
		return nil, fmt.Errorf("isa: code length %d not a multiple of %d", len(code), InstrSize)
	}
	out := make([]Instruction, 0, len(code)/InstrSize)
	for off := 0; off < len(code); off += InstrSize {
		in, err := Decode(code[off:])
		if err != nil {
			return nil, fmt.Errorf("isa: at offset %#x: %w", off, err)
		}
		out = append(out, in)
	}
	return out, nil
}
