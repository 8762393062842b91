// Gadget-program generation: seeded random programs each embedding one
// labeled Spectre-v1 gadget variant, used to cross-validate the static
// analyzer (internal/analysis) against the simulator. This lives beside
// but deliberately apart from Generate: difftest's corpus is pinned by
// seed, so the gadget generator draws from its own RNG stream and never
// touches Generate's code path.

package progen

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sched"
)

// GadgetKind selects which labeled variant of the bounds-check gadget a
// generated program embeds. Exactly one kind leaks.
type GadgetKind int

const (
	// GadgetLeak is the full Spectre-v1 pattern: flushed bound check,
	// attacker-indexed byte load, dependent probe-line load. Leaks.
	GadgetLeak GadgetKind = iota
	// GadgetFenced inserts an LFENCE between the access and the
	// transmit — the paper's software mitigation. Does not leak.
	GadgetFenced
	// GadgetSanitized overwrites the attacker index with an in-bounds
	// constant before the malicious call. Does not leak.
	GadgetSanitized
	// GadgetNoTransmit loads the secret transiently but never uses it
	// as an address. Does not leak.
	GadgetNoTransmit
	// GadgetResolvedBound compares against an immediate bound, so the
	// flags resolve before the branch and no window opens. Does not
	// leak.
	GadgetResolvedBound
	// GadgetPadded pads the dependency chain past the speculation
	// window, so the transmit never issues transiently. Does not leak.
	GadgetPadded
	// GadgetMaskedIndex clamps the attacker index with a contiguous
	// bitmask between the guard and the access (Spectre index masking),
	// so the wrong path reads in-bounds. Does not leak.
	GadgetMaskedIndex
	// GadgetSLH hardens the access with speculative load hardening: an
	// all-ones/all-zero mask derived from the bounds comparison zeroes
	// the index on the mispredicted path. Does not leak.
	GadgetSLH
	// GadgetV2Inject is the Spectre-v2 pattern: an indirect call through
	// a flushed function-pointer slot whose BTB entry was trained to a
	// disclosure gadget — the transient path runs attacker-chosen code.
	// Leaks.
	GadgetV2Inject
	// GadgetV2Retpoline replaces the indirect call with a retpoline
	// thunk, so the dispatch never consults the BTB. Does not leak.
	GadgetV2Retpoline
	// GadgetSSB is the Spectre-v4 pattern: a sanitizing store whose data
	// is still in flight is speculatively bypassed by the reload, which
	// transiently reads the stale secret staged underneath. Leaks.
	GadgetSSB
	// GadgetSSBFenced fences between the sanitizing store and the
	// reload, draining the store buffer. Does not leak.
	GadgetSSBFenced

	NumGadgetKinds = int(GadgetSSBFenced) + 1
)

func (k GadgetKind) String() string {
	switch k {
	case GadgetLeak:
		return "leak"
	case GadgetFenced:
		return "fenced"
	case GadgetSanitized:
		return "sanitized"
	case GadgetNoTransmit:
		return "no-transmit"
	case GadgetResolvedBound:
		return "resolved-bound"
	case GadgetPadded:
		return "padded"
	case GadgetMaskedIndex:
		return "masked-index"
	case GadgetSLH:
		return "slh"
	case GadgetV2Inject:
		return "v2-inject"
	case GadgetV2Retpoline:
		return "v2-retpoline"
	case GadgetSSB:
		return "ssb"
	case GadgetSSBFenced:
		return "ssb-fenced"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ExpectLeak is the ground-truth label: whether a program of this kind
// leaks its secret byte into the probe array's cache lines.
func (k GadgetKind) ExpectLeak() bool {
	return k == GadgetLeak || k == GadgetV2Inject || k == GadgetSSB
}

// GadgetKinds lists every variant, leak first.
func GadgetKinds() []GadgetKind {
	out := make([]GadgetKind, NumGadgetKinds)
	for i := range out {
		out[i] = GadgetKind(i)
	}
	return out
}

// Data-region layout of gadget programs. Benign filler blocks confine
// their traffic to the first page; the gadget's working set sits above
// it, each datum on its own cache line.
const (
	gadBenignPages = 1         // benign traffic: page 0 only
	gadBoundOff    = 0x2000    // uint64 bound (= gadArrLen)
	gadArrOff      = 0x2040    // byte array arr[gadArrLen]
	gadArrLen      = 8         //
	gadFnptrOff    = 0x2080    // v2 function-pointer slot (own line)
	gadSlotOff     = 0x20C0    // v4 store-bypass slot (own line)
	gadZeroOff     = 0x2100    // v4 sanitizing zero word (own line)
	gadSecretOff   = 0x2400    // the secret byte (own line)
	gadProbeOff    = 0x3000    // probe array: 256 lines x 64B
	gadProbeStride = 64        //
	gadDataPages   = 7         // 0x7000 bytes total
	gadTaintReg    = isa.RegBP // attacker-controlled index register
	gadTrainCalls  = 6         // in-bounds calls before the attack
	gadPadCount    = 70        // dependency padding (> SpecWindow)
	gadSafeIndex   = 3         // in-bounds constant for Sanitized
)

// GadgetMeta describes the generated gadget to the analyzer's dynamic
// cross-check: where the pattern sits, which register carries the
// attacker index, and where the covert channel lands.
type GadgetMeta struct {
	Kind     GadgetKind
	TaintReg uint8
	// TaintVal is the out-of-bounds index the runner plants in
	// TaintReg: secret address minus array base.
	TaintVal uint64
	// GuardPC/AccessPC/TransmitPC locate the gadget's three roles
	// (TransmitPC is zero for the no-transmit kind).
	GuardPC    uint64
	AccessPC   uint64
	TransmitPC uint64
	// SecretAddr is where the runner writes the secret byte; the leak
	// lands on ProbeBase + secret*ProbeStride.
	SecretAddr  uint64
	ProbeBase   uint64
	ProbeStride uint64
}

// GenerateGadget builds a seeded random program embedding one labeled
// gadget of the given kind: a prologue and 2-5 benign filler blocks
// (drawn from the same emitters as Generate, constrained away from the
// gadget's registers and data), then a fence, predictor training, a
// bound flush, and the malicious call, then HALT; the victim routine
// follows. The returned meta carries the ground-truth label and the
// addresses the agreement harness needs.
//
// Construction invariants the static/dynamic agreement rests on:
//
//   - only TaintReg (r14/bp) is attacker-tainted, and benign blocks
//     never read or write it (the filler emitters use r0-r13);
//   - the leading MFENCE closes any speculation window a benign
//     bounds-check block may have opened, so the only window reaching
//     the access is the victim's own guard;
//   - gadTrainCalls not-taken executions saturate the guard's 2-bit
//     counter toward not-taken even if an aliased benign branch trained
//     it taken, so the malicious call mispredicts;
//   - the flushed bound load keeps the guard's flags in flight, arming
//     wrong-path execution (except GadgetResolvedBound, whose CMPI
//     resolves immediately);
//   - training indices stay in 0..gadArrLen-1, so only probe lines
//     0..7 are architecturally warmed — disjoint from the secret bytes
//     the dynamic check plants (which avoid 0..7).
func GenerateGadget(seed int64, kind GadgetKind) (Program, GadgetMeta) {
	g := newGen(sched.DeriveSeed(seed, uint64(1000+int(kind))),
		Options{Blocks: 1, Funcs: -1, DataPages: gadBenignPages, SMCProb: -1, FaultProb: -1}.withDefaults())
	defer gens.Put(g)

	const (
		boundAddr  = DataBase + gadBoundOff
		arrBase    = DataBase + gadArrOff
		secretAddr = DataBase + gadSecretOff
		probeBase  = DataBase + gadProbeOff
	)

	g.prologue()
	for b, n := 0, 2+g.rng.Intn(4); b < n; b++ {
		g.block()
	}

	var guardIdx, accessIdx, transmitIdx int
	switch kind {
	case GadgetV2Inject, GadgetV2Retpoline:
		guardIdx, accessIdx, transmitIdx = g.v2Gadget(kind)
	case GadgetSSB, GadgetSSBFenced:
		guardIdx, accessIdx, transmitIdx = g.ssbGadget(kind)
	default:
		guardIdx, accessIdx, transmitIdx = g.v1Gadget(kind)
	}

	code := g.encode()
	data := make([]byte, gadDataPages*mem.PageSize)
	g.rng.Read(data[:gadBenignPages*mem.PageSize])
	putU64(data[gadBoundOff:], gadArrLen)
	for i := 0; i < gadArrLen; i++ {
		data[gadArrOff+i] = byte(i)
	}
	data[gadSecretOff] = 0xAA // placeholder; the runner plants the secret

	p := Program{
		Seed:     seed,
		Code:     code,
		NumInstr: len(g.ins),
		CodeBase: CodeBase,
		Data:     data,
		DataBase: DataBase,
		StackTop: MemSize - mem.PageSize,
		MemSize:  MemSize,
	}
	pcOf := func(idx int) uint64 {
		if idx < 0 {
			return 0
		}
		return CodeBase + uint64(idx)*isa.InstrSize
	}
	taintVal := uint64(secretAddr - arrBase)
	if kind == GadgetSSB || kind == GadgetSSBFenced {
		// The v4 gadgets use the taint register as the address of the
		// store-bypass slot, not as an array index.
		taintVal = DataBase + gadSlotOff
	}
	meta := GadgetMeta{
		Kind:        kind,
		TaintReg:    gadTaintReg,
		TaintVal:    taintVal,
		GuardPC:     pcOf(guardIdx),
		AccessPC:    pcOf(accessIdx),
		TransmitPC:  pcOf(transmitIdx),
		SecretAddr:  secretAddr,
		ProbeBase:   probeBase,
		ProbeStride: gadProbeStride,
	}
	return p, meta
}

// v1Gadget emits the Spectre-v1 family: predictor training, a bound
// flush, and the malicious call into a bounds-checked victim, with the
// kind's mitigation (fence, sanitizer, mask, SLH, padding) applied.
// Returns the indices of the guard, access, and transmit instructions
// (transmit -1 for the no-transmit kind).
func (g *gen) v1Gadget(kind GadgetKind) (guardIdx, accessIdx, transmitIdx int) {
	const (
		boundAddr = DataBase + gadBoundOff
		arrBase   = DataBase + gadArrOff
		probeBase = DataBase + gadProbeOff
	)
	victim := g.newLabel()

	// The gadget sequence. MFENCE first: a clean speculative slate.
	g.emit(isa.Instruction{Op: isa.MFENCE})
	g.emit(isa.Instruction{Op: isa.MOV, Rd: 2, Rs1: gadTaintReg}) // save the index
	for k := 0; k < gadTrainCalls; k++ {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: gadTaintReg, Imm: int64(k % gadArrLen)})
		g.emitRef(isa.Instruction{Op: isa.CALL}, victim)
	}
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: 4, Imm: boundAddr})
	g.emit(isa.Instruction{Op: isa.CLFLUSH, Rs1: 4})
	g.emit(isa.Instruction{Op: isa.MFENCE})
	if kind == GadgetSanitized {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: gadTaintReg, Imm: gadSafeIndex})
	} else {
		g.emit(isa.Instruction{Op: isa.MOV, Rd: gadTaintReg, Rs1: 2}) // restore the index
	}
	g.emitRef(isa.Instruction{Op: isa.CALL}, victim)
	g.emit(isa.Instruction{Op: isa.HALT})

	// The victim: if (x < bound) { t = arr[x]; leak probe[t*64] }.
	vout := g.newLabel()
	g.bind(victim)
	if kind == GadgetResolvedBound {
		g.emit(isa.Instruction{Op: isa.CMPI, Rs1: gadTaintReg, Imm: gadArrLen})
	} else {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: 4, Imm: boundAddr})
		g.emit(isa.Instruction{Op: isa.LOAD, Rd: 5, Rs1: 4})
		g.emit(isa.Instruction{Op: isa.CMP, Rs1: gadTaintReg, Rs2: 5})
	}
	guardIdx = len(g.ins)
	g.emitRef(isa.Instruction{Op: isa.JAE}, vout)
	switch kind {
	case GadgetMaskedIndex:
		// Index masking: clamp to the array before the access; the
		// mispredicted path reads arr[x&7], never the secret.
		g.emit(isa.Instruction{Op: isa.ANDI, Rd: gadTaintReg, Rs1: gadTaintReg, Imm: gadArrLen - 1})
	case GadgetSLH:
		// Speculative load hardening: r7 = (x < bound) ? ~0 : 0, built
		// from the sign of x-bound, then AND-ed into the index — on the
		// wrong path the mask is zero and the access reads arr[0].
		g.emit(isa.Instruction{Op: isa.SUB, Rd: 7, Rs1: gadTaintReg, Rs2: 5})
		g.emit(isa.Instruction{Op: isa.SHRI, Rd: 7, Rs1: 7, Imm: 63})
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: 3, Imm: 0})
		g.emit(isa.Instruction{Op: isa.SUB, Rd: 7, Rs1: 3, Rs2: 7})
		g.emit(isa.Instruction{Op: isa.AND, Rd: gadTaintReg, Rs1: gadTaintReg, Rs2: 7})
	}
	accessIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 6, Rs1: gadTaintReg, Imm: arrBase})
	if kind == GadgetFenced {
		g.emit(isa.Instruction{Op: isa.LFENCE})
	}
	g.emit(isa.Instruction{Op: isa.SHLI, Rd: 6, Rs1: 6, Imm: 6})
	if kind == GadgetPadded {
		for i := 0; i < gadPadCount; i++ {
			g.emit(isa.Instruction{Op: isa.ADDI, Rd: 7, Rs1: 7, Imm: 1})
		}
	}
	transmitIdx = -1
	if kind != GadgetNoTransmit {
		transmitIdx = len(g.ins)
		g.emit(isa.Instruction{Op: isa.LOADB, Rd: 8, Rs1: 6, Imm: probeBase})
	}
	g.bind(vout)
	g.emit(isa.Instruction{Op: isa.RET})
	return guardIdx, accessIdx, transmitIdx
}

// v2Gadget emits the Spectre-v2 family: a dispatch routine calling
// through a function-pointer slot, trained with the disclosure gadget's
// address, then re-pointed at a benign routine and flushed so the
// armed call's target is in flight — the BTB steers the transient path
// into the gadget with the out-of-bounds index live. The retpoline
// kind replaces the indirect call with a thunk that pins speculation
// in a capture loop. Guard is the dispatch's indirect call (the thunk
// call for the retpoline kind); access/transmit are the gadget body's
// loads.
func (g *gen) v2Gadget(kind GadgetKind) (guardIdx, accessIdx, transmitIdx int) {
	const (
		fnptrAddr = DataBase + gadFnptrOff
		arrBase   = DataBase + gadArrOff
		probeBase = DataBase + gadProbeOff
	)
	dispatch := g.newLabel()
	gadget := g.newLabel()
	benign := g.newLabel()

	g.emit(isa.Instruction{Op: isa.MFENCE})
	g.emit(isa.Instruction{Op: isa.MOV, Rd: 2, Rs1: gadTaintReg}) // save the index
	// Train: plant the gadget's address in the slot and call the
	// dispatch with in-bounds indices, filling the BTB entry.
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: 9, Imm: fnptrAddr})
	g.emitRef(isa.Instruction{Op: isa.MOVI, Rd: 10}, gadget)
	g.emit(isa.Instruction{Op: isa.STORE, Rs1: 9, Rs2: 10})
	for k := 0; k < gadTrainCalls; k++ {
		g.emit(isa.Instruction{Op: isa.MOVI, Rd: gadTaintReg, Imm: int64(k % gadArrLen)})
		g.emitRef(isa.Instruction{Op: isa.CALL}, dispatch)
	}
	// Arm: re-point the slot at the benign routine and flush it, so the
	// dispatch's pointer load is in flight when the call predicts.
	g.emitRef(isa.Instruction{Op: isa.MOVI, Rd: 10}, benign)
	g.emit(isa.Instruction{Op: isa.STORE, Rs1: 9, Rs2: 10})
	g.emit(isa.Instruction{Op: isa.CLFLUSH, Rs1: 9})
	g.emit(isa.Instruction{Op: isa.MFENCE})
	g.emit(isa.Instruction{Op: isa.MOV, Rd: gadTaintReg, Rs1: 2}) // restore the index
	g.emitRef(isa.Instruction{Op: isa.CALL}, dispatch)
	g.emit(isa.Instruction{Op: isa.HALT})

	// The dispatch: fn = *slot; fn().
	g.bind(dispatch)
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: 9, Imm: fnptrAddr})
	g.emit(isa.Instruction{Op: isa.LOAD, Rd: 11, Rs1: 9})
	if kind == GadgetV2Retpoline {
		thunk := g.newLabel()
		capture := g.newLabel()
		setup := g.newLabel()
		guardIdx = len(g.ins)
		g.emitRef(isa.Instruction{Op: isa.CALL}, thunk)
		g.emit(isa.Instruction{Op: isa.LFENCE})
		g.emit(isa.Instruction{Op: isa.RET})
		// The thunk: the RSB predicts the capture loop; the RET's real
		// target is the pointer smashed into the return slot.
		g.bind(thunk)
		g.emitRef(isa.Instruction{Op: isa.CALL}, setup)
		g.bind(capture)
		g.emitRef(isa.Instruction{Op: isa.JMP}, capture)
		g.bind(setup)
		g.emit(isa.Instruction{Op: isa.STORE, Rs1: isa.RegSP, Rs2: 11})
		g.emit(isa.Instruction{Op: isa.RET})
	} else {
		guardIdx = len(g.ins)
		g.emit(isa.Instruction{Op: isa.CALLR, Rs1: 11})
		g.emit(isa.Instruction{Op: isa.LFENCE})
		g.emit(isa.Instruction{Op: isa.RET})
	}

	g.bind(benign)
	g.emit(isa.Instruction{Op: isa.RET})

	// The disclosure gadget: probe[arr[x]*64]. Statically unreachable —
	// only the trained BTB ever steers execution here.
	g.bind(gadget)
	accessIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 6, Rs1: gadTaintReg, Imm: arrBase})
	g.emit(isa.Instruction{Op: isa.SHLI, Rd: 6, Rs1: 6, Imm: 6})
	transmitIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 8, Rs1: 6, Imm: probeBase})
	g.emit(isa.Instruction{Op: isa.RET})
	return guardIdx, accessIdx, transmitIdx
}

// ssbGadget emits the Spectre-v4 family: the secret is staged into the
// slot the taint register points at, a sanitizing store of a
// slow-arriving zero overwrites it, and the immediate reload
// speculatively bypasses the not-yet-visible store — transiently
// reading the stale secret. Guard is the sanitizing store; access is
// the bypassing load; transmit is the probe load.
func (g *gen) ssbGadget(kind GadgetKind) (guardIdx, accessIdx, transmitIdx int) {
	const (
		secretAddr = DataBase + gadSecretOff
		zeroAddr   = DataBase + gadZeroOff
		probeBase  = DataBase + gadProbeOff
	)
	g.emit(isa.Instruction{Op: isa.MFENCE})
	// Stage the secret into the slot.
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: 9, Imm: secretAddr})
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 2, Rs1: 9})
	g.emit(isa.Instruction{Op: isa.STOREB, Rs1: gadTaintReg, Rs2: 2})
	g.emit(isa.Instruction{Op: isa.MFENCE})
	// Make the sanitizing zero slow to arrive.
	g.emit(isa.Instruction{Op: isa.MOVI, Rd: 4, Imm: zeroAddr})
	g.emit(isa.Instruction{Op: isa.CLFLUSH, Rs1: 4})
	g.emit(isa.Instruction{Op: isa.MFENCE})
	g.emit(isa.Instruction{Op: isa.LOAD, Rd: 12, Rs1: 4})
	guardIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.STOREB, Rs1: gadTaintReg, Rs2: 12})
	if kind == GadgetSSBFenced {
		g.emit(isa.Instruction{Op: isa.LFENCE})
	}
	accessIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 6, Rs1: gadTaintReg})
	g.emit(isa.Instruction{Op: isa.SHLI, Rd: 6, Rs1: 6, Imm: 6})
	transmitIdx = len(g.ins)
	g.emit(isa.Instruction{Op: isa.LOADB, Rd: 8, Rs1: 6, Imm: probeBase})
	g.emit(isa.Instruction{Op: isa.LFENCE})
	g.emit(isa.Instruction{Op: isa.HALT})
	return guardIdx, accessIdx, transmitIdx
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
