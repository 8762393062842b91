package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instruction{
		{Op: NOP},
		{Op: HALT},
		{Op: MOVI, Rd: 3, Imm: -42},
		{Op: MOV, Rd: 1, Rs1: 2},
		{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: ADDI, Rd: 1, Rs1: 2, Imm: 1 << 40},
		{Op: LOAD, Rd: 5, Rs1: 6, Imm: 8},
		{Op: STORE, Rs1: 6, Rs2: 7, Imm: -16},
		{Op: PUSH, Rs1: 9},
		{Op: POP, Rd: 9},
		{Op: CMP, Rs1: 1, Rs2: 2},
		{Op: CMPI, Rs1: 1, Imm: 100},
		{Op: JMP, Imm: 0x1000},
		{Op: JAE, Imm: 0x2000},
		{Op: CALL, Imm: 0x3000},
		{Op: CALLR, Rs1: 4},
		{Op: RET},
		{Op: CLFLUSH, Rs1: 2, Imm: 64},
		{Op: MFENCE},
		{Op: LFENCE},
		{Op: RDTSC, Rd: 11},
		{Op: SYSCALL},
	}
	var buf [InstrSize]byte
	for _, in := range cases {
		if err := in.Encode(buf[:]); err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v want %+v", got, in)
		}
	}
}

// TestEncodeDecodeQuick property: any instruction that encodes
// successfully decodes to an identical value.
func TestEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randomValidInstruction(rng)
		var buf [InstrSize]byte
		if err := in.Encode(buf[:]); err != nil {
			return false
		}
		got, err := Decode(buf[:])
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// randomValidInstruction builds an instruction that uses only the fields
// of its opcode's form.
func randomValidInstruction(rng *rand.Rand) Instruction {
	op := Op(rng.Intn(NumOps))
	in := Instruction{Op: op}
	u := usage(op.Form())
	if u.rd {
		in.Rd = uint8(rng.Intn(NumRegs))
	}
	if u.rs1 {
		in.Rs1 = uint8(rng.Intn(NumRegs))
	}
	if u.rs2 {
		in.Rs2 = uint8(rng.Intn(NumRegs))
	}
	if u.imm {
		in.Imm = rng.Int63() - rng.Int63()
	}
	return in
}

func TestDecodeRejectsJunk(t *testing.T) {
	var buf [InstrSize]byte
	// Invalid opcode.
	buf[0] = byte(NumOps)
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted invalid opcode")
	}
	// Out-of-range register.
	buf[0] = byte(MOV)
	buf[1] = 99
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted out-of-range register")
	}
	// Nonzero reserved bytes.
	buf = [InstrSize]byte{}
	buf[0] = byte(NOP)
	buf[13] = 1
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted nonzero reserved byte")
	}
	// Unused field set.
	buf = [InstrSize]byte{}
	buf[0] = byte(RET)
	buf[1] = 1
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted RET with rd set")
	}
	// Short buffer.
	if _, err := Decode(buf[:8]); err == nil {
		t.Error("decode accepted short buffer")
	}
}

func TestValidateRejectsUnusedImm(t *testing.T) {
	in := Instruction{Op: RET, Imm: 5}
	if err := in.Validate(); err == nil {
		t.Error("validate accepted RET with imm set")
	}
}

func TestInstructionString(t *testing.T) {
	cases := map[string]Instruction{
		"movi r1, 42":      {Op: MOVI, Rd: 1, Imm: 42},
		"add r1, r2, r3":   {Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		"load r5, [r6+8]":  {Op: LOAD, Rd: 5, Rs1: 6, Imm: 8},
		"store [sp-8], r2": {Op: STORE, Rs1: RegSP, Rs2: 2, Imm: -8},
		"ret":              {Op: RET},
		"jae 0x2000":       {Op: JAE, Imm: 0x2000},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !JAE.IsCondBranch() || !JE.IsCondBranch() {
		t.Error("JAE/JE should be conditional branches")
	}
	if JMP.IsCondBranch() {
		t.Error("JMP is not conditional")
	}
	for _, op := range []Op{JMP, JMPR, CALL, CALLR, RET, JB} {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
}

func TestOpByName(t *testing.T) {
	for i := 0; i < NumOps; i++ {
		op := Op(i)
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v", op.String(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
}

func TestDisasmAll(t *testing.T) {
	mod := MustAssemble(`
		movi r1, 7
		addi r1, r1, 1
		halt
	`)
	img, err := mod.Link(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	out := DisasmAll(img.Code, img.Base)
	for _, want := range []string{"movi r1, 7", "addi r1, r1, 1", "halt", "1000: movi"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeAll(t *testing.T) {
	mod := MustAssemble("nop\nnop\nhalt\n")
	img, err := mod.Link(0)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := DecodeAll(img.Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 || ins[2].Op != HALT {
		t.Errorf("DecodeAll = %v", ins)
	}
	if _, err := DecodeAll(img.Code[:10]); err == nil {
		t.Error("DecodeAll accepted ragged length")
	}
}
