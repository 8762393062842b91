// Package isa defines the instruction set of the simulated machine used
// throughout the CR-Spectre reproduction: a 64-bit, fixed-width,
// little-endian RISC-style ISA with an in-memory call stack, cache
// maintenance instructions (CLFLUSH/MFENCE/LFENCE), a cycle counter
// (RDTSC) and a SYSCALL escape hatch.
//
// Every instruction encodes to exactly 16 bytes (see Encode), which makes
// code images trivially scannable for ROP gadgets: any aligned suffix of
// the image that decodes cleanly and ends in RET is a candidate gadget.
package isa

import "fmt"

// Op identifies an operation in the simulated ISA.
type Op uint8

// The complete opcode space. The zero value is NOP so that zeroed memory
// decodes (uselessly but harmlessly) as no-ops.
const (
	NOP  Op = iota // no operation
	HALT           // stop the machine

	MOVI // rd = imm
	MOV  // rd = rs1

	ADD // rd = rs1 + rs2
	SUB // rd = rs1 - rs2
	MUL // rd = rs1 * rs2
	DIV // rd = rs1 / rs2 (unsigned; divide-by-zero faults)
	MOD // rd = rs1 % rs2 (unsigned; divide-by-zero faults)
	AND // rd = rs1 & rs2
	OR  // rd = rs1 | rs2
	XOR // rd = rs1 ^ rs2
	SHL // rd = rs1 << (rs2 & 63)
	SHR // rd = rs1 >> (rs2 & 63) (logical)
	SAR // rd = int64(rs1) >> (rs2 & 63) (arithmetic)

	ADDI // rd = rs1 + imm
	SUBI // rd = rs1 - imm
	MULI // rd = rs1 * imm
	DIVI // rd = rs1 / imm (unsigned)
	MODI // rd = rs1 % imm (unsigned)
	ANDI // rd = rs1 & imm
	ORI  // rd = rs1 | imm
	XORI // rd = rs1 ^ imm
	SHLI // rd = rs1 << (imm & 63)
	SHRI // rd = rs1 >> (imm & 63)

	LOAD   // rd = mem64[rs1 + imm]
	LOADB  // rd = zeroext(mem8[rs1 + imm])
	STORE  // mem64[rs1 + imm] = rs2
	STOREB // mem8[rs1 + imm] = low8(rs2)
	PUSH   // sp -= 8; mem64[sp] = rs1
	POP    // rd = mem64[sp]; sp += 8

	CMP  // set flags from (rs1, rs2)
	CMPI // set flags from (rs1, imm)

	JMP // pc = imm
	JE  // jump if equal
	JNE // jump if not equal
	JL  // jump if less (signed)
	JLE // jump if less-or-equal (signed)
	JG  // jump if greater (signed)
	JGE // jump if greater-or-equal (signed)
	JB  // jump if below (unsigned)
	JBE // jump if below-or-equal (unsigned)
	JA  // jump if above (unsigned)
	JAE // jump if above-or-equal (unsigned)

	CALL  // push pc+16; pc = imm
	CALLR // push pc+16; pc = rs1
	JMPR  // pc = rs1
	RET   // pc = pop

	CLFLUSH // evict the cache line containing rs1+imm from all levels
	MFENCE  // full memory fence (drains pending latency)
	LFENCE  // load fence / speculation barrier: ends speculative execution
	RDTSC   // rd = current cycle count

	SYSCALL // invoke machine syscall; number in r0, args in r1..r3

	opCount // sentinel; not a real opcode
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Form describes the operand shape of an instruction, used by the
// assembler, disassembler and encoder validation.
type Form uint8

// Operand forms.
const (
	FormNone     Form = iota // op
	FormRdImm                // op rd, imm
	FormRdRs1                // op rd, rs1
	FormRdRs1Rs2             // op rd, rs1, rs2
	FormRdRs1Imm             // op rd, rs1, imm
	FormRdMem                // op rd, [rs1+imm]
	FormMemRs2               // op [rs1+imm], rs2
	FormRs1                  // op rs1
	FormRd                   // op rd
	FormRs1Rs2               // op rs1, rs2
	FormRs1Imm               // op rs1, imm
	FormImm                  // op imm   (branch target)
	FormMem                  // op [rs1+imm]
)

type opInfo struct {
	name string
	form Form
}

var opTable = [NumOps]opInfo{
	NOP:     {"nop", FormNone},
	HALT:    {"halt", FormNone},
	MOVI:    {"movi", FormRdImm},
	MOV:     {"mov", FormRdRs1},
	ADD:     {"add", FormRdRs1Rs2},
	SUB:     {"sub", FormRdRs1Rs2},
	MUL:     {"mul", FormRdRs1Rs2},
	DIV:     {"div", FormRdRs1Rs2},
	MOD:     {"mod", FormRdRs1Rs2},
	AND:     {"and", FormRdRs1Rs2},
	OR:      {"or", FormRdRs1Rs2},
	XOR:     {"xor", FormRdRs1Rs2},
	SHL:     {"shl", FormRdRs1Rs2},
	SHR:     {"shr", FormRdRs1Rs2},
	SAR:     {"sar", FormRdRs1Rs2},
	ADDI:    {"addi", FormRdRs1Imm},
	SUBI:    {"subi", FormRdRs1Imm},
	MULI:    {"muli", FormRdRs1Imm},
	DIVI:    {"divi", FormRdRs1Imm},
	MODI:    {"modi", FormRdRs1Imm},
	ANDI:    {"andi", FormRdRs1Imm},
	ORI:     {"ori", FormRdRs1Imm},
	XORI:    {"xori", FormRdRs1Imm},
	SHLI:    {"shli", FormRdRs1Imm},
	SHRI:    {"shri", FormRdRs1Imm},
	LOAD:    {"load", FormRdMem},
	LOADB:   {"loadb", FormRdMem},
	STORE:   {"store", FormMemRs2},
	STOREB:  {"storeb", FormMemRs2},
	PUSH:    {"push", FormRs1},
	POP:     {"pop", FormRd},
	CMP:     {"cmp", FormRs1Rs2},
	CMPI:    {"cmpi", FormRs1Imm},
	JMP:     {"jmp", FormImm},
	JE:      {"je", FormImm},
	JNE:     {"jne", FormImm},
	JL:      {"jl", FormImm},
	JLE:     {"jle", FormImm},
	JG:      {"jg", FormImm},
	JGE:     {"jge", FormImm},
	JB:      {"jb", FormImm},
	JBE:     {"jbe", FormImm},
	JA:      {"ja", FormImm},
	JAE:     {"jae", FormImm},
	CALL:    {"call", FormImm},
	CALLR:   {"callr", FormRs1},
	JMPR:    {"jmpr", FormRs1},
	RET:     {"ret", FormNone},
	CLFLUSH: {"clflush", FormMem},
	MFENCE:  {"mfence", FormNone},
	LFENCE:  {"lfence", FormNone},
	RDTSC:   {"rdtsc", FormRd},
	SYSCALL: {"syscall", FormNone},
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, info := range opTable {
		if info.name != "" {
			m[info.name] = Op(op)
		}
	}
	return m
}()

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return int(op) < NumOps }

// String returns the assembler mnemonic for op.
func (op Op) String() string {
	if !op.Valid() {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Form returns the operand form of op. It panics on invalid opcodes.
func (op Op) Form() Form {
	if !op.Valid() {
		panic(fmt.Sprintf("isa: invalid opcode %d", uint8(op)))
	}
	return opTable[op].form
}

// OpByName resolves an assembler mnemonic to its opcode.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return op >= JE && op <= JAE }

// IsBranch reports whether op redirects control flow (conditional or not).
func (op Op) IsBranch() bool {
	return op == JMP || op == JMPR || op == CALL || op == CALLR || op == RET || op.IsCondBranch()
}
