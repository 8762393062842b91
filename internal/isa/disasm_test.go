package isa

import (
	"bytes"
	"strings"
	"testing"
)

// mustEncode builds the canonical byte stream for a sequence of
// instructions, failing the test on any non-canonical input.
func mustEncode(t *testing.T, ins ...Instruction) []byte {
	t.Helper()
	code := make([]byte, len(ins)*InstrSize)
	for i, in := range ins {
		if err := in.Encode(code[i*InstrSize:]); err != nil {
			t.Fatalf("encode %d (%v): %v", i, in, err)
		}
	}
	return code
}

func TestDecodeSlotsRoundTrip(t *testing.T) {
	ins := []Instruction{
		{Op: MOVI, Rd: 1, Imm: 42},
		{Op: ADD, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: JMP, Imm: 0x10000},
		{Op: RET},
	}
	code := mustEncode(t, ins...)
	slots := DecodeSlots(code)
	if slots.Truncated != 0 {
		t.Fatalf("truncated = %d, want 0", slots.Truncated)
	}
	if len(slots.Instrs) != len(ins) {
		t.Fatalf("got %d slots, want %d", len(slots.Instrs), len(ins))
	}
	for i, in := range slots.Instrs {
		if !slots.Valid(i) {
			t.Fatalf("slot %d: not valid", i)
		}
		if in != ins[i] {
			t.Fatalf("slot %d: decoded %v, want %v", i, in, ins[i])
		}
		// The canonical-encoding contract CFG recovery relies on: every
		// decoded slot re-encodes to the exact bytes it came from.
		var buf [InstrSize]byte
		if err := in.Encode(buf[:]); err != nil {
			t.Fatalf("slot %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(buf[:], code[i*InstrSize:(i+1)*InstrSize]) {
			t.Fatalf("slot %d: re-encodes to % x, want % x", i, buf, code[i*InstrSize:(i+1)*InstrSize])
		}
	}
}

// TestDecodeSlotsTruncatedTail covers the truncated-final-instruction
// case: an image whose code section length is not a slot multiple. The
// whole slots must still decode and the ragged tail must be reported,
// not silently dropped or decoded out of thin air.
func TestDecodeSlotsTruncatedTail(t *testing.T) {
	code := mustEncode(t, Instruction{Op: MOVI, Rd: 3, Imm: 7}, Instruction{Op: RET})
	for cut := 1; cut < InstrSize; cut++ {
		slots := DecodeSlots(code[:len(code)-cut])
		if len(slots.Instrs) != 1 {
			t.Fatalf("cut %d: got %d slots, want 1", cut, len(slots.Instrs))
		}
		if !slots.Valid(0) || slots.Instrs[0].Op != MOVI {
			t.Fatalf("cut %d: slot 0 = %v (valid %v), want movi", cut, slots.Instrs[0], slots.Valid(0))
		}
		if want := InstrSize - cut; slots.Truncated != want {
			t.Fatalf("cut %d: truncated = %d, want %d", cut, slots.Truncated, want)
		}
	}
	// DecodeAll, by contrast, must reject the ragged length outright.
	if _, err := DecodeAll(code[:len(code)-3]); err == nil {
		t.Fatal("DecodeAll accepted a truncated stream")
	}
}

// TestDecodeSlotsInvalidInterleaved models an RWX page mid-rewrite (or
// plain data mapped executable): an invalid slot must read as not valid,
// holding the zero Instruction, while its neighbours still decode — the
// property that lets CFG recovery and the gadget scanner work on
// partially-junk images.
func TestDecodeSlotsInvalidInterleaved(t *testing.T) {
	code := mustEncode(t,
		Instruction{Op: MOVI, Rd: 1, Imm: 1},
		Instruction{Op: NOP},
		Instruction{Op: RET},
	)
	// Corrupt the middle slot three ways: junk opcode, out-of-range
	// register, nonzero reserved byte.
	for name, corrupt := range map[string]func(b []byte){
		"junk-opcode":   func(b []byte) { b[0] = 0xFF },
		"bad-register":  func(b []byte) { b[0] = byte(MOV); b[1] = NumRegs },
		"reserved-byte": func(b []byte) { b[13] = 1 },
	} {
		c := append([]byte(nil), code...)
		corrupt(c[InstrSize : 2*InstrSize])
		slots := DecodeSlots(c)
		if !slots.Valid(0) || !slots.Valid(2) || slots.Instrs[0].Op != MOVI || slots.Instrs[2].Op != RET {
			t.Fatalf("%s: neighbour slots broken: %v / %v", name, slots.Instrs[0], slots.Instrs[2])
		}
		if slots.Valid(1) {
			t.Fatalf("%s: corrupted slot decoded as %v", name, slots.Instrs[1])
		}
		if slots.Instrs[1] != (Instruction{}) {
			t.Fatalf("%s: corrupted slot holds %+v, want the zero Instruction", name, slots.Instrs[1])
		}
	}
}

// TestDisasmAllMidInstructionView covers the branch-to-mid-instruction
// scenario: disassembling from an unaligned offset reads the same bytes
// under a shifted frame, so slots that were valid become junk ("??")
// rather than phantom instructions. CFG recovery treats such targets as
// invalid for exactly this reason.
func TestDisasmAllMidInstructionView(t *testing.T) {
	code := mustEncode(t,
		Instruction{Op: MOVI, Rd: 1, Imm: 0x123456789}, // imm bytes land on the shifted opcode
		Instruction{Op: MOVI, Rd: 2, Imm: 0x123456789},
		Instruction{Op: RET},
	)
	aligned := DisasmAll(code, 0x10000)
	if strings.Contains(aligned, "??") {
		t.Fatalf("aligned view has junk:\n%s", aligned)
	}
	shifted := DisasmAll(code[8:], 0x10008)
	if !strings.Contains(shifted, "??") {
		t.Fatalf("mid-instruction view decoded cleanly:\n%s", shifted)
	}
}

func TestDisasmAllRendersAddresses(t *testing.T) {
	code := mustEncode(t, Instruction{Op: NOP}, Instruction{Op: HALT})
	out := DisasmAll(code, 0x40000)
	for _, want := range []string{"0x0000040000: nop", "0x0000040010: halt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DisasmAll output missing %q:\n%s", want, out)
		}
	}
}
