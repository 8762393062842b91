package isa

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

func TestAssembleBasicProgram(t *testing.T) {
	mod, err := Assemble(`
	; a tiny program
	_start:
		movi r1, 10
		movi r2, 0
	loop:
		add r2, r2, r1
		subi r1, r1, 1
		cmpi r1, 0
		jne loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumInstructions() != 7 {
		t.Fatalf("got %d instructions, want 7", mod.NumInstructions())
	}
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0x10000 {
		t.Errorf("entry = %#x, want 0x10000", img.Entry)
	}
	// The jne should target the loop label.
	ins, err := DecodeAll(img.Code)
	if err != nil {
		t.Fatal(err)
	}
	loopAddr := img.MustSymbol("loop")
	if got := uint64(ins[5].Imm); got != loopAddr {
		t.Errorf("jne target = %#x, want %#x", got, loopAddr)
	}
}

func TestAssembleDataSection(t *testing.T) {
	mod, err := Assemble(`
		movi r1, table
		load r2, [r1+8]
		halt
	.data
	val: .word 7
	table:
		.word 100, 200, 300
	msg: .asciz "hi"
	buf: .space 4 0xff
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0)
	if err != nil {
		t.Fatal(err)
	}
	table := img.MustSymbol("table")
	if table < img.DataBase {
		t.Fatalf("table %#x below data base %#x", table, img.DataBase)
	}
	data := expand(t, img)
	off := table - img.DataBase
	if got := binary.LittleEndian.Uint64(data[off+8:]); got != 200 {
		t.Errorf("table[1] = %d, want 200", got)
	}
	msg := img.MustSymbol("msg") - img.DataBase
	if string(data[msg:msg+3]) != "hi\x00" {
		t.Errorf("msg bytes = %q", data[msg:msg+3])
	}
	buf := img.MustSymbol("buf") - img.DataBase
	if data[buf] != 0xff || data[buf+3] != 0xff {
		t.Error(".space fill not applied")
	}
	// movi r1, table must hold the absolute data address.
	ins, _ := DecodeAll(img.Code)
	if uint64(ins[0].Imm) != table {
		t.Errorf("movi imm = %#x, want %#x", ins[0].Imm, table)
	}
}

// TestSpaceGrowsDataOnce: a zero-filled .space reserves its bytes without
// storing them, a filled one grows the data section in one step instead
// of byte by byte, and both lay out the same bytes as a dense section.
func TestSpaceGrowsDataOnce(t *testing.T) {
	const n = 1 << 20
	alloc := func(src string) (*Module, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mod, err := Assemble(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return mod, after.TotalAlloc - before.TotalAlloc
	}
	mod, got := alloc(".data\nbig: .space 1048576")
	if limit := uint64(64 << 10); got >= limit {
		t.Errorf("assembling a 1 MiB zero .space allocated %d bytes, want < %d", got, limit)
	}
	if mod.DataSize() != n {
		t.Errorf("data size %d, want %d", mod.DataSize(), n)
	}
	limit := uint64(3 << 19) // 1.5 MiB; growing byte by byte allocates 5 MiB
	if raceEnabled {
		limit = 5 << 19
	}
	if _, got := alloc(".data\n.byte 7\nbig: .space 1048576 0xa5"); got >= limit {
		t.Errorf("assembling a 1 MiB filled .space allocated %d bytes, want < %d", got, limit)
	}

	mod, err := Assemble(".data\n.byte 7\n.space 1048576 0xa5\n.byte 9\n.space 3\n.byte 1")
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{7}, bytes.Repeat([]byte{0xa5}, n)...)
	want = append(want, 9, 0, 0, 0, 1)
	if data := expand(t, img); !bytes.Equal(data, want) {
		t.Errorf("data section differs from the expected %d bytes (got %d)", len(want), len(data))
	}
	if len(img.Data) != 2 {
		t.Errorf("data section stored as %d runs, want 2 around the 3 zero bytes", len(img.Data))
	}
}

func TestAssembleWordLabelRelocation(t *testing.T) {
	mod, err := Assemble(`
	f:	ret
	.data
	fptr: .word f
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	off := img.MustSymbol("fptr") - img.DataBase
	if got := binary.LittleEndian.Uint64(expand(t, img)[off:]); got != img.MustSymbol("f") {
		t.Errorf(".word f = %#x, want %#x", got, img.MustSymbol("f"))
	}
}

func TestAssembleEqu(t *testing.T) {
	mod, err := Assemble(`
	.equ N 5
	.equ BIG 0x1000
		movi r1, N
		addi r2, r1, BIG
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0)
	if err != nil {
		t.Fatal(err)
	}
	ins, _ := DecodeAll(img.Code)
	if ins[0].Imm != 5 || ins[1].Imm != 0x1000 {
		t.Errorf("equ values wrong: %d, %#x", ins[0].Imm, ins[1].Imm)
	}
}

func TestAssembleSymbolArithmetic(t *testing.T) {
	mod, err := Assemble(`
		movi r1, arr+16
		halt
	.data
	arr: .space 32
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0)
	if err != nil {
		t.Fatal(err)
	}
	ins, _ := DecodeAll(img.Code)
	if uint64(ins[0].Imm) != img.MustSymbol("arr")+16 {
		t.Errorf("arr+16 = %#x, want %#x", ins[0].Imm, img.MustSymbol("arr")+16)
	}
}

func TestAssembleEntryDirective(t *testing.T) {
	mod, err := Assemble(`
	.entry main
	helper:
		ret
	main:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != img.MustSymbol("main") {
		t.Errorf("entry = %#x, want main %#x", img.Entry, img.MustSymbol("main"))
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := map[string]string{
		"unknown mnemonic":    "frob r1, r2",
		"bad register":        "mov r1, r99",
		"wrong operand count": "add r1, r2",
		"undefined symbol":    "jmp nowhere",
		"duplicate label":     "a:\na:\n",
		"instr in data":       ".data\nmov r1, r2",
		"bad directive":       ".bogus 1",
		"bad number":          "movi r1, zz+",
		"word outside data":   ".word 5",
	}
	for name, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error: %q", name, src)
		} else if _, ok := err.(*AsmError); !ok {
			t.Errorf("%s: error is %T, want *AsmError", name, err)
		}
	}
}

func TestAsmErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbadop r1\n")
	ae, ok := err.(*AsmError)
	if !ok {
		t.Fatalf("error %T, want *AsmError", err)
	}
	if ae.Line != 3 {
		t.Errorf("line = %d, want 3", ae.Line)
	}
	if !strings.Contains(ae.Error(), "line 3") {
		t.Errorf("message %q missing line", ae.Error())
	}
}

func TestLinkRequiresAlignedBase(t *testing.T) {
	mod := MustAssemble("halt")
	if _, err := mod.Link(12); err == nil {
		t.Error("Link accepted unaligned base")
	}
}

func TestLinkDifferentBases(t *testing.T) {
	mod := MustAssemble(`
	f:	call f2
		halt
	f2:	ret
	.data
	x: .word 1
	`)
	a, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mod.Link(0x50000)
	if err != nil {
		t.Fatal(err)
	}
	if b.MustSymbol("f2")-a.MustSymbol("f2") != 0x40000 {
		t.Error("symbols did not slide with base")
	}
	insA, _ := DecodeAll(a.Code)
	insB, _ := DecodeAll(b.Code)
	if uint64(insB[0].Imm)-uint64(insA[0].Imm) != 0x40000 {
		t.Error("call target did not slide with base")
	}
}

func TestCommentStyles(t *testing.T) {
	mod, err := Assemble(`
	nop ; semicolon
	nop # hash
	nop // slashes
	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumInstructions() != 4 {
		t.Errorf("got %d instructions, want 4", mod.NumInstructions())
	}
}

func TestCharLiterals(t *testing.T) {
	mod, err := Assemble("movi r1, 'A'\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := mod.Link(0)
	ins, _ := DecodeAll(img.Code)
	if ins[0].Imm != 'A' {
		t.Errorf("char literal = %d, want %d", ins[0].Imm, 'A')
	}
}

func TestNegativeDisplacement(t *testing.T) {
	mod, err := Assemble("load r1, [sp-16]\nstore [bp-8], r2\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := mod.Link(0)
	ins, _ := DecodeAll(img.Code)
	if ins[0].Imm != -16 || ins[0].Rs1 != RegSP {
		t.Errorf("load [sp-16] decoded as %+v", ins[0])
	}
	if ins[1].Imm != -8 || ins[1].Rs1 != RegBP {
		t.Errorf("store [bp-8] decoded as %+v", ins[1])
	}
}

func TestAlignDirective(t *testing.T) {
	mod, err := Assemble(`
	halt
	.data
	.byte 1
	.align 64
	arr: .word 9
	`)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := mod.Link(0)
	if (img.MustSymbol("arr")-img.DataBase)%64 != 0 {
		t.Error("arr not 64-byte aligned")
	}
}
