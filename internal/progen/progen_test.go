package progen

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestGenerateDeterministic: the same seed must yield bit-identical
// programs (code and data image), and different seeds different ones.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, DefaultOptions())
	b := Generate(42, DefaultOptions())
	if !bytes.Equal(a.Code, b.Code) || !bytes.Equal(a.Data, b.Data) {
		t.Fatal("same seed produced different programs")
	}
	c := Generate(43, DefaultOptions())
	if bytes.Equal(a.Code, c.Code) {
		t.Fatal("different seeds produced identical code")
	}
}

// TestGeneratedProgramsAreCanonical: every emitted instruction must
// survive strict Decode and agree with DecodeFast — the generator's
// output feeds both decoders through the differential harness.
func TestGeneratedProgramsAreCanonical(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed, DefaultOptions())
		if p.NumInstr*isa.InstrSize != len(p.Code) {
			t.Fatalf("seed %d: NumInstr %d inconsistent with %d code bytes", seed, p.NumInstr, len(p.Code))
		}
		for i := 0; i < p.NumInstr; i++ {
			raw := p.Code[i*isa.InstrSize : (i+1)*isa.InstrSize]
			in, err := isa.Decode(raw)
			if err != nil {
				t.Fatalf("seed %d instr %d: %v", seed, i, err)
			}
			if fast := isa.DecodeFast(raw); fast != in {
				t.Fatalf("seed %d instr %d: DecodeFast %+v != Decode %+v", seed, i, fast, in)
			}
		}
	}
}

// TestGenerateCoversInstructionClasses: across a modest seed band the
// generator must emit every class the issue calls for.
func TestGenerateCoversInstructionClasses(t *testing.T) {
	seen := map[isa.Op]bool{}
	smc := 0
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(seed, DefaultOptions())
		if p.CodeRWX {
			smc++
		}
		for i := 0; i < p.NumInstr; i++ {
			in, err := isa.Decode(p.Code[i*isa.InstrSize : (i+1)*isa.InstrSize])
			if err != nil {
				t.Fatal(err)
			}
			seen[in.Op] = true
		}
	}
	for _, op := range []isa.Op{
		isa.ADD, isa.DIV, isa.DIVI, isa.LOAD, isa.STORE, isa.LOADB, isa.STOREB,
		isa.CMPI, isa.JAE, isa.JNE, isa.CALL, isa.CALLR, isa.JMPR, isa.RET,
		isa.PUSH, isa.POP, isa.CLFLUSH, isa.MFENCE, isa.LFENCE, isa.RDTSC,
		isa.MOVI, isa.HALT,
	} {
		if !seen[op] {
			t.Errorf("no generated program used %v", op)
		}
	}
	if smc == 0 {
		t.Error("no self-modifying program in 40 seeds (SMCProb=0.35)")
	}
	if smc == 40 {
		t.Error("every program self-modifying; probability gate broken")
	}
}

// TestOptionsKnobs: negative knobs disable features deterministically.
func TestOptionsKnobs(t *testing.T) {
	p := Generate(7, Options{Funcs: -1, SMCProb: -1, FaultProb: -1, Blocks: 8})
	if p.CodeRWX {
		t.Fatal("SMCProb<0 still produced a self-modifying program")
	}
	for i := 0; i < p.NumInstr; i++ {
		in, err := isa.Decode(p.Code[i*isa.InstrSize : (i+1)*isa.InstrSize])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.CALL || in.Op == isa.CALLR {
			t.Fatalf("Funcs<0 still emitted %v at %d", in.Op, i)
		}
	}
}

// TestTruncate: the prefix keeps its bytes, the tail becomes canonical
// HALTs, and out-of-range k is the identity.
func TestTruncate(t *testing.T) {
	p := Generate(3, DefaultOptions())
	k := p.NumInstr / 2
	q := p.Truncate(k)
	if !bytes.Equal(q.Code[:k*isa.InstrSize], p.Code[:k*isa.InstrSize]) {
		t.Fatal("truncation altered the prefix")
	}
	for i := k; i < q.NumInstr; i++ {
		in, err := isa.Decode(q.Code[i*isa.InstrSize : (i+1)*isa.InstrSize])
		if err != nil {
			t.Fatalf("tail instr %d not canonical: %v", i, err)
		}
		if in.Op != isa.HALT {
			t.Fatalf("tail instr %d is %v, want HALT", i, in.Op)
		}
	}
	if full := p.Truncate(p.NumInstr + 5); !bytes.Equal(full.Code, p.Code) {
		t.Fatal("over-length truncation is not the identity")
	}
	if len(p.Truncate(0).Code) != len(p.Code) {
		t.Fatal("zero-length truncation changed code size")
	}
}

// TestNewMemLayout: the mapped image must reflect the program and carry
// the advertised permissions, including RWX for self-modifying programs.
func TestNewMemLayout(t *testing.T) {
	var rwx, rx Program
	for seed := int64(0); ; seed++ {
		p := Generate(seed, DefaultOptions())
		if p.CodeRWX && rwx.Code == nil {
			rwx = p
		}
		if !p.CodeRWX && rx.Code == nil {
			rx = p
		}
		if rwx.Code != nil && rx.Code != nil {
			break
		}
	}
	for _, tc := range []struct {
		p    Program
		perm mem.Perm
	}{{rwx, mem.PermRWX}, {rx, mem.PermRX}} {
		m, err := tc.p.NewMem()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.PermAt(tc.p.CodeBase); got != tc.perm {
			t.Fatalf("code perm %v, want %v", got, tc.perm)
		}
		if got := m.PermAt(tc.p.DataBase); got != mem.PermRW {
			t.Fatalf("data perm %v, want RW", got)
		}
		if got := m.PermAt(tc.p.StackTop - 8); got != mem.PermRW {
			t.Fatalf("stack perm %v, want RW", got)
		}
		if got := m.PermAt(tc.p.StackTop); got != 0 {
			t.Fatalf("guard page above stack is mapped (%v)", got)
		}
		code, err := m.PeekRaw(tc.p.CodeBase, uint64(len(tc.p.Code)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(code, tc.p.Code) {
			t.Fatal("mapped code differs from program code")
		}
		// LoadInto maps only into a memory a fresh NewMem would match.
		if err := tc.p.LoadInto(mem.New(2 * tc.p.MemSize)); err == nil {
			t.Fatal("LoadInto accepted a memory of the wrong size")
		}
	}
}

// TestCraftEncodesAndDisasm: Craft must produce a runnable image and
// Disasm must render each instruction once.
func TestCraft(t *testing.T) {
	p, err := progenCraftSample()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInstr != 3 {
		t.Fatalf("NumInstr=%d, want 3", p.NumInstr)
	}
	d := p.Disasm(0)
	if n := strings.Count(d, "\n"); n != 3 {
		t.Fatalf("Disasm rendered %d lines, want 3:\n%s", n, d)
	}
	if _, err := Craft([]isa.Instruction{{Op: isa.MOVI, Rd: 99}}, nil, false); err == nil {
		t.Fatal("Craft accepted an unencodable instruction")
	}
}

func progenCraftSample() (Program, error) {
	return Craft([]isa.Instruction{
		{Op: isa.MOVI, Rd: 0, Imm: 1},
		{Op: isa.ADDI, Rd: 0, Rs1: 0, Imm: 2},
		{Op: isa.HALT},
	}, nil, false)
}
