package isa

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Module is the output of Assemble: position-independent sections plus a
// symbol table and relocations. Call Link with a load base to produce a
// runnable Image. Separating assembly from linking lets the loader apply
// ASLR cheaply: the same Module can be linked at many bases.
type Module struct {
	code      []Instruction
	codeRel   []codeReloc
	data      []Run  // the data section's initialised runs (see Run)
	dataSize  uint64 // the data section's size, zeros included
	dataRel   []dataReloc
	symbols   map[string]symbol
	entryName string
}

type section uint8

const (
	secText section = iota
	secData
)

type symbol struct {
	sec    section
	off    uint64
	isEqu  bool
	value  int64 // for .equ constants
	defind bool
}

type codeReloc struct {
	instr  int    // index into code
	sym    string // symbol whose address is added to the instruction Imm
	addend int64
	line   int
}

type dataReloc struct {
	off    uint64 // byte offset into data section (8-byte slot)
	sym    string
	addend int64
	line   int
}

// AsmError describes an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

func (e *AsmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &AsmError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble parses assembler source into a Module. The syntax is
// line-oriented:
//
//	; comment        (also "#" and "//")
//	label:           (labels may share a line with an instruction)
//	.text / .data    switch section
//	.word e, e, ...  emit 8-byte little-endian words (labels allowed)
//	.byte e, e, ...  emit bytes
//	.space n [fill]  emit n fill bytes (default 0: reserved, not stored)
//	.ascii "s"       emit string bytes
//	.asciz "s"       emit string bytes plus NUL
//	.align n         pad data section to n-byte boundary (with zeros)
//	.equ name expr   define a numeric constant
//	.entry name      designate the entry label (default "_start", else 0)
//
// Instruction operands: registers r0..r15 (aliases sp=r15, bp=r14),
// immediates (decimal, 0x hex, 'c' char, negative), symbol references
// with optional +/- offsets, and memory operands [reg], [reg+expr].
//
// The data section may hold at most 64 MiB, the most a SIMX object file
// stores, so every module that assembles can be linked, written and read
// back.
func Assemble(src string) (*Module, error) {
	m := &Module{symbols: map[string]symbol{}, entryName: "_start"}
	cur := secText
	lines := strings.Split(src, "\n")

	// Pass 1: lay out sections, record label offsets, collect parsed
	// instructions with unresolved symbolic immediates.
	type pendingInstr struct {
		in   Instruction
		sym  string
		add  int64
		line int
	}
	var pend []pendingInstr

	for ln, raw := range lines {
		line := ln + 1
		text := stripComment(raw)
		text = strings.TrimSpace(text)
		for text != "" {
			// Leading label(s).
			if i := strings.Index(text, ":"); i >= 0 && isIdent(strings.TrimSpace(text[:i])) && !strings.ContainsAny(text[:i], " \t,") {
				name := strings.TrimSpace(text[:i])
				if _, dup := m.symbols[name]; dup {
					return nil, errf(line, "duplicate symbol %q", name)
				}
				off := uint64(len(m.code)) * InstrSize
				if cur == secData {
					off = m.dataSize
				}
				m.symbols[name] = symbol{sec: cur, off: off, defind: true}
				text = strings.TrimSpace(text[i+1:])
				continue
			}
			break
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			if err := m.directive(&cur, text, line); err != nil {
				return nil, err
			}
			continue
		}
		in, symName, addend, err := parseInstr(text, line)
		if err != nil {
			return nil, err
		}
		if cur != secText {
			return nil, errf(line, "instruction in data section")
		}
		pend = append(pend, pendingInstr{in: in, sym: symName, add: addend, line: line})
		m.code = append(m.code, Instruction{}) // placeholder for layout
	}

	// Pass 2: install instructions and record relocations.
	m.code = m.code[:0]
	for _, p := range pend {
		idx := len(m.code)
		if p.sym != "" {
			s, ok := m.symbols[p.sym]
			if !ok {
				return nil, errf(p.line, "undefined symbol %q", p.sym)
			}
			if s.isEqu {
				p.in.Imm = s.value + p.add
			} else {
				p.in.Imm = p.add
				m.codeRel = append(m.codeRel, codeReloc{instr: idx, sym: p.sym, addend: p.add, line: p.line})
			}
		}
		m.code = append(m.code, p.in)
	}
	// Resolve data relocations' symbols now (fail early on undefined).
	for _, r := range m.dataRel {
		if _, ok := m.symbols[r.sym]; !ok {
			return nil, errf(r.line, "undefined symbol %q in .word", r.sym)
		}
	}
	// Images share the runs read-only: no spare capacity for an append
	// to write into.
	m.data = slices.Clip(m.data)
	for i := range m.data {
		m.data[i].Bytes = slices.Clip(m.data[i].Bytes)
	}
	return m, nil
}

// MustAssemble is Assemble that panics on error; for static program text.
func MustAssemble(src string) *Module {
	m, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return m
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			inStr = !inStr
		}
		if inStr {
			continue
		}
		if c == ';' || c == '#' {
			return s[:i]
		}
		if c == '/' && i+1 < len(s) && s[i+1] == '/' {
			return s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == '.':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (m *Module) directive(cur *section, text string, line int) error {
	fields := splitOperands(text)
	head := strings.Fields(fields[0])
	dir := head[0]
	switch dir {
	case ".text":
		*cur = secText
	case ".data":
		*cur = secData
	case ".entry":
		if len(head) != 2 {
			return errf(line, ".entry needs a symbol name")
		}
		m.entryName = head[1]
	case ".equ":
		if len(head) != 3 {
			return errf(line, ".equ needs: .equ name value")
		}
		v, err := parseNum(head[2], line)
		if err != nil {
			return err
		}
		if _, dup := m.symbols[head[1]]; dup {
			return errf(line, "duplicate symbol %q", head[1])
		}
		m.symbols[head[1]] = symbol{isEqu: true, value: v, defind: true}
	case ".word":
		if *cur != secData {
			return errf(line, ".word outside .data")
		}
		args := wordArgs(text, dir)
		if len(args) == 0 {
			return errf(line, ".word needs at least one value")
		}
		for _, a := range args {
			sym, add, num, isNum, err := parseExpr(a, line)
			if err != nil {
				return err
			}
			var v int64
			if isNum {
				v = num
			} else if s, ok := m.symbols[sym]; ok && s.isEqu {
				v = s.value + add
			} else {
				m.dataRel = append(m.dataRel, dataReloc{off: m.dataSize, sym: sym, addend: add, line: line})
			}
			binary.LittleEndian.PutUint64(m.store(8), uint64(v))
		}
	case ".byte":
		if *cur != secData {
			return errf(line, ".byte outside .data")
		}
		args := wordArgs(text, dir)
		if len(args) == 0 {
			return errf(line, ".byte needs at least one value")
		}
		for _, a := range args {
			v, err := parseNum(a, line)
			if err != nil {
				return err
			}
			m.store(1)[0] = byte(v)
		}
	case ".space":
		if *cur != secData {
			return errf(line, ".space outside .data")
		}
		if len(head) < 2 || len(head) > 3 {
			return errf(line, ".space needs: .space n [fill]")
		}
		n, err := parseNum(head[1], line)
		if err != nil {
			return err
		}
		if n < 0 || uint64(n) > objMaxSection-m.dataSize {
			return errf(line, ".space size %d out of range (the data section holds at most %d bytes)", n, objMaxSection)
		}
		fill := int64(0)
		if len(head) == 3 {
			if fill, err = parseNum(head[2], line); err != nil {
				return err
			}
		}
		if byte(fill) == 0 {
			m.dataSize += uint64(n) // reserved, never stored
			break
		}
		b := m.store(int(n))
		for i := range b {
			b[i] = byte(fill)
		}
	case ".ascii", ".asciz":
		i := strings.Index(text, "\"")
		j := strings.LastIndex(text, "\"")
		if i < 0 || j <= i {
			return errf(line, "%s needs a quoted string", dir)
		}
		s, err := strconv.Unquote(text[i : j+1])
		if err != nil {
			return errf(line, "bad string literal: %v", err)
		}
		if dir == ".asciz" {
			s += "\x00"
		}
		copy(m.store(len(s)), s)
	case ".align":
		if *cur != secData {
			return errf(line, ".align outside .data")
		}
		if len(head) != 2 {
			return errf(line, ".align needs a boundary")
		}
		n, err := parseNum(head[1], line)
		if err != nil {
			return err
		}
		if n <= 0 || n&(n-1) != 0 {
			return errf(line, ".align boundary must be a power of two")
		}
		m.dataSize = alignUp(m.dataSize, uint64(n)) // zero padding, never stored
	default:
		return errf(line, "unknown directive %q", dir)
	}
	if m.dataSize > objMaxSection {
		return errf(line, "data section of %d bytes exceeds the %d an object file holds", m.dataSize, objMaxSection)
	}
	return nil
}

// store appends n initialised bytes to the data section and returns them
// for the caller to fill. They extend the last run when it ends where the
// section does, and start a new run after a gap.
func (m *Module) store(n int) []byte {
	if n == 0 {
		return nil
	}
	if k := len(m.data); k > 0 && m.data[k-1].end() == m.dataSize {
		r := &m.data[k-1]
		at := len(r.Bytes)
		r.Bytes = slices.Grow(r.Bytes, n)[:at+n]
		m.dataSize += uint64(n)
		return r.Bytes[at:]
	}
	b := make([]byte, n)
	m.data = append(m.data, Run{Off: m.dataSize, Bytes: b})
	m.dataSize += uint64(n)
	return b
}

func wordArgs(text, dir string) []string {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), dir))
	if rest == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func splitOperands(text string) []string { return []string{text} }

// parseNum parses a pure numeric literal: decimal, 0x hex, 'c' char,
// optionally negative.
func parseNum(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r, err := strconv.Unquote(s)
		if err != nil || len(r) != 1 {
			return 0, errf(line, "bad char literal %s", s)
		}
		return int64(r[0]), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned hex like 0xffffffffffffffff.
		if u, uerr := strconv.ParseUint(s, 0, 64); uerr == nil {
			return int64(u), nil
		}
		return 0, errf(line, "bad number %q", s)
	}
	return v, nil
}

// parseExpr parses `number` or `symbol[+|-number]`. When the expression
// is symbolic, it returns (sym, addend, 0, false); when numeric,
// ("", 0, value, true).
func parseExpr(s string, line int) (sym string, addend int64, num int64, isNum bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", 0, 0, false, errf(line, "empty expression")
	}
	// Only a digit, a sign or a char literal's quote can start a number,
	// so a symbol skips parseNum and the errors it would build.
	if c := s[0]; c >= '0' && c <= '9' || c == '+' || c == '-' || c == '\'' {
		if v, e := parseNum(s, line); e == nil {
			return "", 0, v, true, nil
		}
	}
	// symbol +/- offset
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			name := strings.TrimSpace(s[:i])
			if !isIdent(name) {
				break
			}
			off, e := parseNum(strings.TrimSpace(s[i+1:]), line)
			if e != nil {
				return "", 0, 0, false, e
			}
			if s[i] == '-' {
				off = -off
			}
			return name, off, 0, false, nil
		}
	}
	if !isIdent(s) {
		return "", 0, 0, false, errf(line, "bad expression %q", s)
	}
	return s, 0, 0, false, nil
}

func parseReg(s string, line int) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp":
		return RegSP, nil
	case "bp":
		return RegBP, nil
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < NumRegs {
			return uint8(n), nil
		}
	}
	return 0, errf(line, "bad register %q", s)
}

// parseMem parses "[reg]", "[reg+expr]", "[reg-num]". The displacement
// may be symbolic only via .equ constants resolved by the caller; plain
// label displacements are not supported inside memory operands (use movi).
func parseMem(s string, line int) (reg uint8, disp int64, dispSym string, err error) {
	s = strings.TrimSpace(s)
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, "", errf(line, "bad memory operand %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			r, e := parseReg(inner[:i], line)
			if e != nil {
				return 0, 0, "", e
			}
			rest := strings.TrimSpace(inner[i+1:])
			v, e := parseNum(rest, line)
			if e != nil {
				if inner[i] == '+' && isIdent(rest) {
					return r, 0, rest, nil
				}
				return 0, 0, "", errf(line, "bad displacement %q", rest)
			}
			if inner[i] == '-' {
				v = -v
			}
			return r, v, "", nil
		}
	}
	r, e := parseReg(inner, line)
	return r, 0, "", e
}

// parseInstr parses a single instruction line, returning the instruction
// plus an optional unresolved symbol reference feeding its Imm field.
func parseInstr(text string, line int) (Instruction, string, int64, error) {
	var in Instruction
	sp := strings.IndexAny(text, " \t")
	mnemonic := text
	rest := ""
	if sp >= 0 {
		mnemonic = text[:sp]
		rest = strings.TrimSpace(text[sp+1:])
	}
	op, ok := OpByName(strings.ToLower(mnemonic))
	if !ok {
		return in, "", 0, errf(line, "unknown mnemonic %q", mnemonic)
	}
	in.Op = op
	ops := []string{}
	if rest != "" {
		for _, p := range splitTopLevel(rest) {
			ops = append(ops, strings.TrimSpace(p))
		}
	}
	need := func(n int) error {
		if len(ops) != n {
			return errf(line, "%s expects %d operand(s), got %d", op, n, len(ops))
		}
		return nil
	}
	var symName string
	var addend int64
	setImm := func(s string) error {
		sym, add, num, isNum, err := parseExpr(s, line)
		if err != nil {
			return err
		}
		if isNum {
			in.Imm = num
			return nil
		}
		symName, addend = sym, add
		return nil
	}
	var err error
	switch op.Form() {
	case FormNone:
		err = need(0)
	case FormRdImm:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0], line); err == nil {
				err = setImm(ops[1])
			}
		}
	case FormRdRs1:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0], line); err == nil {
				in.Rs1, err = parseReg(ops[1], line)
			}
		}
	case FormRdRs1Rs2:
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(ops[0], line); err == nil {
				if in.Rs1, err = parseReg(ops[1], line); err == nil {
					in.Rs2, err = parseReg(ops[2], line)
				}
			}
		}
	case FormRdRs1Imm:
		if err = need(3); err == nil {
			if in.Rd, err = parseReg(ops[0], line); err == nil {
				if in.Rs1, err = parseReg(ops[1], line); err == nil {
					err = setImm(ops[2])
				}
			}
		}
	case FormRdMem:
		if err = need(2); err == nil {
			if in.Rd, err = parseReg(ops[0], line); err == nil {
				var dsym string
				in.Rs1, in.Imm, dsym, err = parseMem(ops[1], line)
				if err == nil && dsym != "" {
					symName, addend = dsym, 0
				}
			}
		}
	case FormMemRs2:
		if err = need(2); err == nil {
			var dsym string
			in.Rs1, in.Imm, dsym, err = parseMem(ops[0], line)
			if err == nil && dsym != "" {
				symName, addend = dsym, 0
			}
			if err == nil {
				in.Rs2, err = parseReg(ops[1], line)
			}
		}
	case FormRs1:
		if err = need(1); err == nil {
			in.Rs1, err = parseReg(ops[0], line)
		}
	case FormRd:
		if err = need(1); err == nil {
			in.Rd, err = parseReg(ops[0], line)
		}
	case FormRs1Rs2:
		if err = need(2); err == nil {
			if in.Rs1, err = parseReg(ops[0], line); err == nil {
				in.Rs2, err = parseReg(ops[1], line)
			}
		}
	case FormRs1Imm:
		if err = need(2); err == nil {
			if in.Rs1, err = parseReg(ops[0], line); err == nil {
				err = setImm(ops[1])
			}
		}
	case FormImm:
		if err = need(1); err == nil {
			err = setImm(ops[0])
		}
	case FormMem:
		if err = need(1); err == nil {
			var dsym string
			in.Rs1, in.Imm, dsym, err = parseMem(ops[0], line)
			if err == nil && dsym != "" {
				symName, addend = dsym, 0
			}
		}
	}
	if err != nil {
		return in, "", 0, err
	}
	return in, symName, addend, nil
}

// splitTopLevel splits on commas that are not inside brackets or quotes.
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	inQ := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '\'', '"':
			inQ = !inQ
		case ',':
			if depth == 0 && !inQ {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
