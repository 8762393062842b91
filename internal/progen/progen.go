// Package progen generates seeded random programs for the differential
// co-simulation harness (internal/oracle, cmd/difftest). Each program is a
// fully encoded, canonically valid instruction stream plus a memory layout
// — code, a multi-page data region, a stack — that both the optimized core
// and the reference interpreter map identically.
//
// Generation is deterministic: the RNG is derived from (seed) with the
// same splitmix64 finaliser the experiment engine uses (sched.DeriveSeed),
// so difftest shards and fuzz runs reproduce from a single integer.
//
// The instruction mix is weighted across the classes most likely to
// disagree between the fast core and the oracle:
//
//   - ALU register and immediate families (including guarded and
//     occasionally unguarded DIV/MOD, to exercise the fault path);
//   - loads and stores through known-valid address registers, biased
//     toward displacements that straddle page boundaries;
//   - bounds-check-guarded loads in the Spectre v1 shape, whose wrong
//     path speculatively accesses out of bounds — the post-squash
//     consistency stress;
//   - CALL/RET chains through a small DAG of generated functions (plus
//     register-indirect CALLR/JMPR);
//   - bounded counting loops;
//   - RWX self-modifying stores that rewrite the immediate field of an
//     already-executed instruction inside a loop, forcing the predecode
//     cache through its generation-bump revalidation and re-decode paths;
//   - CLFLUSH/MFENCE/LFENCE/RDTSC sprinkles (speculation barriers and the
//     one timing-dependent architectural instruction).
package progen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sched"
)

// Layout constants shared by every generated program.
const (
	CodeBase  = 0x10000
	DataBase  = 0x40000
	MemSize   = 1 << 20
	stackSize = 16 * mem.PageSize
)

// Options tunes the generator.
type Options struct {
	// Blocks is the number of body blocks in main (default 24).
	Blocks int
	// Funcs is the number of callable functions (default 3); function i
	// may call function j < i, bounding call depth by construction.
	Funcs int
	// DataPages is the size of the RW data region in pages (default 4).
	DataPages int
	// SMCProb is the probability the program is self-modifying (code
	// mapped RWX and SMC blocks enabled). Default 0.35.
	SMCProb float64
	// FaultProb is the per-opportunity probability of emitting an
	// unguarded DIV/MOD or an out-of-region access, so some programs end
	// in a fault that both sides must report identically. Default 0.02.
	FaultProb float64
}

// DefaultOptions returns the difftest defaults.
func DefaultOptions() Options {
	return Options{Blocks: 24, Funcs: 3, DataPages: 4, SMCProb: 0.35, FaultProb: 0.02}
}

// withDefaults fills zero values with the defaults; pass a negative
// value to force a knob to zero (no functions, never self-modifying...).
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Blocks <= 0 {
		o.Blocks = d.Blocks
	}
	if o.Funcs == 0 {
		o.Funcs = d.Funcs
	} else if o.Funcs < 0 {
		o.Funcs = 0
	}
	if o.DataPages <= 0 {
		o.DataPages = d.DataPages
	}
	if o.SMCProb == 0 {
		o.SMCProb = d.SMCProb
	} else if o.SMCProb < 0 {
		o.SMCProb = 0
	}
	if o.FaultProb == 0 {
		o.FaultProb = d.FaultProb
	} else if o.FaultProb < 0 {
		o.FaultProb = 0
	}
	return o
}

// Program is one generated machine setup: encoded code, initial data
// image, and the memory layout both simulators map before execution
// starts at CodeBase with SP = StackTop.
type Program struct {
	Seed     int64
	Code     []byte
	NumInstr int
	CodeBase uint64
	// CodeRWX maps the code pages writable (self-modifying programs);
	// otherwise code is R+X as the loader maps real images.
	CodeRWX  bool
	Data     []byte
	DataBase uint64
	StackTop uint64
	MemSize  uint64
}

// NewMem builds a fresh memory with the program mapped: code R+X (or
// R+W+X), data R+W, stack R+W under a guard page. Callers run from
// PC=CodeBase with SP=StackTop.
func (p Program) NewMem() (*mem.Memory, error) {
	m := mem.New(p.MemSize)
	if err := p.LoadInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadInto maps the program into m exactly as NewMem maps it into a fresh
// memory. m must be empty — just built by mem.New or returned to that
// state by Reset — and exactly as large as a fresh one, so reused and
// fresh machines fault at the same addresses.
func (p Program) LoadInto(m *mem.Memory) error {
	if want := (p.MemSize + mem.PageSize - 1) / mem.PageSize * mem.PageSize; m.Size() != want {
		return fmt.Errorf("progen: memory is %d bytes, program needs %d", m.Size(), want)
	}
	if err := m.LoadRaw(p.CodeBase, p.Code); err != nil {
		return err
	}
	codePerm := mem.PermRX
	if p.CodeRWX {
		codePerm = mem.PermRWX
	}
	if err := m.Protect(p.CodeBase, uint64(len(p.Code)), codePerm); err != nil {
		return err
	}
	if err := m.LoadRaw(p.DataBase, p.Data); err != nil {
		return err
	}
	if err := m.Protect(p.DataBase, uint64(len(p.Data)), mem.PermRW); err != nil {
		return err
	}
	return m.Protect(p.StackTop-stackSize, stackSize, mem.PermRW)
}

// Truncate returns the program with only the first k instructions kept and
// every later slot overwritten with HALT (a canonical encoding), so any
// control flow reaching past the prefix halts cleanly. The minimizing
// reporter searches over k.
func (p Program) Truncate(k int) Program {
	if k >= p.NumInstr || k < 0 {
		return p
	}
	code := make([]byte, len(p.Code))
	copy(code, p.Code[:k*isa.InstrSize])
	var halt [isa.InstrSize]byte
	halt[0] = byte(isa.HALT)
	for i := k; i < p.NumInstr; i++ {
		copy(code[i*isa.InstrSize:], halt[:])
	}
	q := p
	q.Code = code
	return q
}

// Disasm renders up to max instructions of the program for divergence
// reports (max <= 0 means all).
func (p Program) Disasm(max int) string {
	if max <= 0 || max > p.NumInstr {
		max = p.NumInstr
	}
	var b strings.Builder
	for i := 0; i < max; i++ {
		raw := p.Code[i*isa.InstrSize : (i+1)*isa.InstrSize]
		in, err := isa.Decode(raw)
		if err != nil {
			fmt.Fprintf(&b, "%4d %#07x: <invalid: %v>\n", i, p.CodeBase+uint64(i*isa.InstrSize), err)
			continue
		}
		fmt.Fprintf(&b, "%4d %#07x: %s\n", i, p.CodeBase+uint64(i*isa.InstrSize), in)
	}
	return b.String()
}

// Craft builds a Program from an explicit instruction list and initial
// data image — the hand-directed entry point the oracle tests use. Label
// immediates are not supported; instructions must carry absolute targets.
func Craft(instrs []isa.Instruction, data []byte, codeRWX bool) (Program, error) {
	code := make([]byte, len(instrs)*isa.InstrSize)
	for i, in := range instrs {
		if err := in.Encode(code[i*isa.InstrSize:]); err != nil {
			return Program{}, fmt.Errorf("progen: instruction %d: %w", i, err)
		}
	}
	if len(data) == 0 {
		data = make([]byte, mem.PageSize)
	}
	return Program{
		Code:     code,
		NumInstr: len(instrs),
		CodeBase: CodeBase,
		CodeRWX:  codeRWX,
		Data:     data,
		DataBase: DataBase,
		StackTop: MemSize - mem.PageSize,
		MemSize:  MemSize,
	}, nil
}

// Register roles inside generated programs. Value registers are free for
// ALU results; address registers only ever hold generator-known data
// addresses (so loads and stores stay in mapped memory); r13 is reserved
// for loop counters and sp for the hardware stack.
const (
	numValRegs = 10 // r0..r9
	regAddr0   = 10
	regAddr1   = 11
	regAddr2   = 12
	regLoop    = 13
)

// instr is one instruction under construction: a concrete isa.Instruction
// whose Imm may still be a symbolic reference to another instruction index
// (branch target or code-address immediate).
type instr struct {
	in    isa.Instruction
	label int // -1: Imm is final; else Imm = CodeBase + 16*labels[label]
}

type gen struct {
	rng    *rand.Rand
	opts   Options
	ins    []instr
	labels []int // label id -> instruction index (filled as labels bind)
	// addrVal tracks the generator-known value of each address register.
	addrVal  [isa.NumRegs]uint64
	dataSize uint64
	smc      bool
	funcLbl  []int // label id of each generated function
}

// gens pools generator scratch: a generation's instruction, label and
// function slices and its RNG are dead once the program is encoded, so
// the next generation reuses them and allocates only the Code and Data
// it returns.
var gens = sync.Pool{New: func() any { return &gen{rng: rand.New(rand.NewSource(0))} }}

// newGen takes a generator from the pool, emptied and with its RNG
// reseeded: (*rand.Rand).Seed restarts exactly the stream NewSource(seed)
// starts, Read's position included. Return it with gens.Put once its
// program is encoded.
func newGen(seed int64, opts Options) *gen {
	g := gens.Get().(*gen)
	g.rng.Seed(seed)
	*g = gen{rng: g.rng, opts: opts, ins: g.ins[:0], labels: g.labels[:0],
		dataSize: uint64(opts.DataPages) * mem.PageSize, funcLbl: g.funcLbl[:0]}
	return g
}

// Generate builds a random program from the seed. The RNG stream is
// derived with the engine's splitmix64 finaliser so adjacent seeds give
// statistically independent programs.
func Generate(seed int64, opts Options) Program {
	o := opts.withDefaults()
	g := newGen(sched.DeriveSeed(seed, 0), o)
	defer gens.Put(g)
	g.smc = g.rng.Float64() < o.SMCProb

	// Functions are laid out after main's HALT; allocate their labels up
	// front so call sites can reference them before they are emitted.
	for i := 0; i < o.Funcs; i++ {
		g.funcLbl = append(g.funcLbl, g.newLabel())
	}

	g.prologue()
	for b := 0; b < o.Blocks; b++ {
		g.block()
	}
	g.emit(isa.Instruction{Op: isa.HALT})
	for i := 0; i < o.Funcs; i++ {
		g.function(i)
	}

	code := g.encode()
	data := make([]byte, g.dataSize)
	g.rng.Read(data)
	return Program{
		Seed:     seed,
		Code:     code,
		NumInstr: len(g.ins),
		CodeBase: CodeBase,
		CodeRWX:  g.smc,
		Data:     data,
		DataBase: DataBase,
		StackTop: MemSize - mem.PageSize,
		MemSize:  MemSize,
	}
}

func (g *gen) newLabel() int {
	g.labels = append(g.labels, -1)
	return len(g.labels) - 1
}

// bind attaches a label to the next emitted instruction.
func (g *gen) bind(label int) { g.labels[label] = len(g.ins) }

func (g *gen) emit(in isa.Instruction) { g.ins = append(g.ins, instr{in: in, label: -1}) }

// emitRef emits an instruction whose Imm is the address of label.
func (g *gen) emitRef(in isa.Instruction, label int) {
	g.ins = append(g.ins, instr{in: in, label: label})
}

func (g *gen) encode() []byte {
	code := make([]byte, len(g.ins)*isa.InstrSize)
	for i, it := range g.ins {
		in := it.in
		if it.label >= 0 {
			idx := g.labels[it.label]
			if idx < 0 {
				panic(fmt.Sprintf("progen: unbound label %d at instruction %d", it.label, i))
			}
			in.Imm = int64(CodeBase + uint64(idx)*isa.InstrSize)
		}
		if err := in.Encode(code[i*isa.InstrSize:]); err != nil {
			panic(fmt.Sprintf("progen: generated invalid instruction %d (%v): %v", i, in, err))
		}
	}
	return code
}

func (g *gen) valReg() uint8  { return uint8(g.rng.Intn(numValRegs)) }
func (g *gen) addrReg() uint8 { return uint8(regAddr0 + g.rng.Intn(3)) }

// setAddr points an address register at a fresh generator-chosen data
// offset and records its value.
func (g *gen) setAddr(r uint8) {
	off := uint64(g.rng.Intn(int(g.dataSize - 64)))
	g.addrVal[r] = DataBase + off
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: r, Imm: int64(DataBase + off)})
}

// dataTarget picks a byte offset in the data region for an access of the
// given size, biased toward page-straddling placements.
func (g *gen) dataTarget(size uint64) uint64 {
	if g.opts.DataPages > 1 && g.rng.Float64() < 0.3 {
		// Straddle: place the access across an interior page boundary.
		pg := uint64(1 + g.rng.Intn(g.opts.DataPages-1))
		back := uint64(1 + g.rng.Intn(int(size)))
		if back > size-1 {
			back = size - 1
		}
		if size == 1 {
			back = 0
		}
		return pg*mem.PageSize - back
	}
	return uint64(g.rng.Intn(int(g.dataSize - size)))
}

func (g *gen) prologue() {
	for r := uint8(0); r < numValRegs; r++ {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: r, Imm: int64(g.rng.Uint64())})
	}
	for _, r := range []uint8{regAddr0, regAddr1, regAddr2} {
		g.setAddr(r)
	}
}

// block emits one body block, its kind drawn with ALU and memory blocks
// at double weight, and self-modifying loops at double weight in
// self-modifying programs only.
func (g *gen) block() {
	kinds := 9
	if g.smc {
		kinds = 11
	}
	switch g.rng.Intn(kinds) {
	case 0, 1:
		g.aluBlock()
	case 2, 3:
		g.memBlock()
	case 4:
		g.boundsBlock()
	case 5:
		g.callBlock()
	case 6:
		g.loopBlock()
	case 7:
		g.pushPopBlock()
	case 8:
		g.fenceBlock()
	default:
		g.smcBlock()
	}
}

var regALUOps = []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR}
var immALUOps = []isa.Op{isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI}

// aluBlock emits 1-3 ALU operations on value registers, with occasional
// guarded (and, at FaultProb, unguarded) division.
func (g *gen) aluBlock() {
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(4) {
		case 0: // immediate form
			op := immALUOps[g.rng.Intn(len(immALUOps))]
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Imm: int64(g.rng.Uint64() >> uint(g.rng.Intn(60)))})
		case 1: // division, immediate (nonzero unless fault-injected)
			op := isa.DIVI
			if g.rng.Intn(2) == 0 {
				op = isa.MODI
			}
			imm := int64(1 + g.rng.Intn(1<<16))
			if g.rng.Float64() < g.opts.FaultProb {
				imm = 0
			}
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Imm: imm})
		case 2: // division, register: force the divisor odd first
			op := isa.DIV
			if g.rng.Intn(2) == 0 {
				op = isa.MOD
			}
			d := g.valReg()
			if g.rng.Float64() >= g.opts.FaultProb {
				g.emit(isa.Instruction{Op: isa.ORI, Rd: d, Rs1: d, Imm: 1})
			}
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Rs2: d})
		default:
			op := regALUOps[g.rng.Intn(len(regALUOps))]
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Rs2: g.valReg()})
		}
	}
}

// memBlock repoints an address register and emits 1-3 loads/stores with
// displacements chosen relative to its known value, biased to straddle
// pages; at FaultProb the displacement walks off the region.
func (g *gen) memBlock() {
	r := g.addrReg()
	g.setAddr(r)
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		size := uint64(8)
		byteOp := g.rng.Intn(3) == 0
		if byteOp {
			size = 1
		}
		target := DataBase + g.dataTarget(size)
		if g.rng.Float64() < g.opts.FaultProb {
			target = DataBase + g.dataSize + uint64(g.rng.Intn(4096)) // off the end: both sides must fault
		}
		disp := int64(target) - int64(g.addrVal[r])
		switch {
		case g.rng.Intn(2) == 0 && !byteOp:
			g.emit(isa.Instruction{Op: isa.LOAD, Rd: g.valReg(), Rs1: r, Imm: disp})
		case !byteOp:
			g.emit(isa.Instruction{Op: isa.STORE, Rs1: r, Rs2: g.valReg(), Imm: disp})
		case g.rng.Intn(2) == 0:
			g.emit(isa.Instruction{Op: isa.LOADB, Rd: g.valReg(), Rs1: r, Imm: disp})
		default:
			g.emit(isa.Instruction{Op: isa.STOREB, Rs1: r, Rs2: g.valReg(), Imm: disp})
		}
	}
}

// boundsBlock emits the Spectre v1 shape: an unsigned bounds check
// guarding a scaled load. The architectural path is always in bounds; the
// wrong path speculatively reads out of bounds, which is exactly the
// post-squash state the differential executor must find unchanged.
func (g *gen) boundsBlock() {
	idx, tmp := g.valReg(), g.valReg()
	bound := int64(8 + g.rng.Intn(56)) // bound*8+8 <= one page <= data region
	skip := g.newLabel()
	base := g.addrReg()
	g.setAddr(base)
	// Keep the scaled access inside the region from the reg's position.
	room := (int64(DataBase+g.dataSize) - int64(g.addrVal[base]) - 8) / 8
	if room < bound {
		bound = room
	}
	if bound < 1 {
		bound = 1
	}
	g.emit(isa.Instruction{Op: isa.CMPI, Rs1: idx, Imm: bound})
	g.emitRef(isa.Instruction{Op: isa.JAE}, skip)
	g.emit(isa.Instruction{Op: isa.MOV, Rd: tmp, Rs1: idx})
	g.emit(isa.Instruction{Op: isa.SHLI, Rd: tmp, Rs1: tmp, Imm: 3})
	g.emit(isa.Instruction{Op: isa.ADD, Rd: tmp, Rs1: tmp, Rs2: base})
	g.emit(isa.Instruction{Op: isa.LOAD, Rd: g.valReg(), Rs1: tmp})
	g.bind(skip)
	g.emit(isa.Instruction{Op: isa.NOP}) // label anchor
}

// callBlock calls one of the generated functions, directly or through a
// register (CALLR exercises BTB speculation; a rare JMPR over a NOP
// exercises indirect jumps).
func (g *gen) callBlock() {
	if len(g.funcLbl) == 0 {
		g.aluBlock()
		return
	}
	fn := g.funcLbl[g.rng.Intn(len(g.funcLbl))]
	switch g.rng.Intn(4) {
	case 0:
		t := g.valReg()
		g.emitRef(isa.Instruction{Op: isa.MOVI, Rd: t}, fn)
		g.emit(isa.Instruction{Op: isa.CALLR, Rs1: t})
	case 1:
		over := g.newLabel()
		t := g.valReg()
		g.emitRef(isa.Instruction{Op: isa.MOVI, Rd: t}, over)
		g.emit(isa.Instruction{Op: isa.JMPR, Rs1: t})
		g.emit(isa.Instruction{Op: isa.NOP}) // skipped
		g.bind(over)
		g.emit(isa.Instruction{Op: isa.NOP})
	default:
		g.emitRef(isa.Instruction{Op: isa.CALL}, fn)
	}
}

// loopBlock emits a bounded counting loop whose body is 1-3 simple ops
// that never touch the counter or address registers.
func (g *gen) loopBlock() {
	trips := int64(1 + g.rng.Intn(6))
	top := g.newLabel()
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: regLoop, Imm: trips})
	g.bind(top)
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		if g.rng.Intn(2) == 0 {
			op := regALUOps[g.rng.Intn(len(regALUOps))]
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Rs2: g.valReg()})
		} else {
			r := g.addrReg()
			disp := int64(g.dataTarget(8)) - int64(g.addrVal[r]-DataBase)
			g.emit(isa.Instruction{Op: isa.STORE, Rs1: r, Rs2: g.valReg(), Imm: disp})
		}
	}
	g.emit(isa.Instruction{Op: isa.SUBI, Rd: regLoop, Rs1: regLoop, Imm: 1})
	g.emit(isa.Instruction{Op: isa.CMPI, Rs1: regLoop, Imm: 0})
	g.emitRef(isa.Instruction{Op: isa.JNE}, top)
}

// pushPopBlock emits a balanced PUSH/POP pair around a few ALU ops.
func (g *gen) pushPopBlock() {
	src, dst := g.valReg(), g.valReg()
	g.emit(isa.Instruction{Op: isa.PUSH, Rs1: src})
	n := 1 + g.rng.Intn(2)
	for i := 0; i < n; i++ {
		op := regALUOps[g.rng.Intn(len(regALUOps))]
		g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Rs2: g.valReg()})
	}
	g.emit(isa.Instruction{Op: isa.POP, Rd: dst})
}

// fenceBlock sprinkles the cache-maintenance and timing instructions.
func (g *gen) fenceBlock() {
	switch g.rng.Intn(4) {
	case 0:
		r := g.addrReg()
		g.emit(isa.Instruction{Op: isa.CLFLUSH, Rs1: r, Imm: int64(g.rng.Intn(64))})
	case 1:
		g.emit(isa.Instruction{Op: isa.MFENCE})
	case 2:
		g.emit(isa.Instruction{Op: isa.LFENCE})
	default:
		g.emit(isa.Instruction{Op: isa.RDTSC, Rd: g.valReg()})
	}
}

// smcBlock emits a self-modifying loop: a MOVI "patch slot" is executed
// (and so predecoded), then a STORE rewrites the slot's immediate field in
// place — same page, new generation — and the loop re-executes it. Half
// the time the store writes the value already there, exercising the
// bytes-unchanged revalidation fast path rather than the re-decode path.
func (g *gen) smcBlock() {
	val, ptr, dst := g.valReg(), g.addrReg(), g.valReg()
	trips := int64(2 + g.rng.Intn(3))
	top := g.newLabel()
	slot := g.newLabel()
	origImm := int64(g.rng.Intn(1 << 30))
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: regLoop, Imm: trips})
	g.bind(top)
	// The patch slot: decoded, cached, then rewritten below.
	g.bind(slot)
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: dst, Imm: origImm})
	g.emit(isa.Instruction{Op: isa.ADD, Rd: dst, Rs1: dst, Rs2: g.valReg()})
	// New immediate: loop-varying, or identical (revalidation path).
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Instruction{Op: isa.MOV, Rd: val, Rs1: regLoop})
	} else {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: val, Imm: origImm})
	}
	// ptr = address of the slot's imm field (slot address + 4).
	g.emitRef(isa.Instruction{Op: isa.MOVI, Rd: ptr}, slot)
	g.addrVal[ptr] = 0 // no longer a data address; repointed below
	g.emit(isa.Instruction{Op: isa.STORE, Rs1: ptr, Rs2: val, Imm: 4})
	g.emit(isa.Instruction{Op: isa.SUBI, Rd: regLoop, Rs1: regLoop, Imm: 1})
	g.emit(isa.Instruction{Op: isa.CMPI, Rs1: regLoop, Imm: 0})
	g.emitRef(isa.Instruction{Op: isa.JNE}, top)
	g.setAddr(ptr) // restore the register's data-address role
}

// function emits function idx: a balanced frame, a small body, an optional
// call to a lower-indexed function (a depth chain that terminates by
// construction), and RET.
//
// Functions are generated after main's blocks but called from their
// middle, so the generator's addrVal bookkeeping for the shared address
// registers does not describe the registers' runtime values at call time.
// Each function therefore saves one address register, re-points it
// locally, and restores it before returning — its memory traffic is
// self-contained and the caller's view of every register survives.
func (g *gen) function(idx int) {
	g.bind(g.funcLbl[idx])
	g.emit(isa.Instruction{Op: isa.PUSH, Rs1: isa.RegBP})
	r := g.addrReg()
	saved := g.addrVal[r]
	g.emit(isa.Instruction{Op: isa.PUSH, Rs1: r})
	g.setAddr(r)
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		if g.rng.Intn(3) == 0 {
			disp := int64(g.dataTarget(8)) - int64(g.addrVal[r]-DataBase)
			if g.rng.Intn(2) == 0 {
				g.emit(isa.Instruction{Op: isa.LOAD, Rd: g.valReg(), Rs1: r, Imm: disp})
			} else {
				g.emit(isa.Instruction{Op: isa.STORE, Rs1: r, Rs2: g.valReg(), Imm: disp})
			}
		} else {
			op := regALUOps[g.rng.Intn(len(regALUOps))]
			g.emit(isa.Instruction{Op: op, Rd: g.valReg(), Rs1: g.valReg(), Rs2: g.valReg()})
		}
	}
	if idx > 0 && g.rng.Intn(2) == 0 {
		g.emitRef(isa.Instruction{Op: isa.CALL}, g.funcLbl[g.rng.Intn(idx)])
	}
	g.emit(isa.Instruction{Op: isa.POP, Rd: r})
	g.addrVal[r] = saved
	g.emit(isa.Instruction{Op: isa.POP, Rd: isa.RegBP})
	g.emit(isa.Instruction{Op: isa.RET})
}
