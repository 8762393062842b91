package cpu

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// ErrHalted is returned by Step when the core has already halted.
var ErrHalted = errors.New("cpu: halted")

// ErrBudget is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrBudget = errors.New("cpu: instruction budget exhausted")

// errPrivileged reports user-mode use of an instruction the platform has
// restricted (the paper's §IV countermeasure).
var errPrivileged = errors.New("cpu: privileged instruction in user mode")

// Step retires exactly one architectural instruction (which may trigger a
// wrong-path speculation episode internally). It runs the same retire
// kernel as a compiled block: a block exit (a control transfer, HALT or
// a serializing MFENCE/LFENCE/SYSCALL) as a bare exit, anything else as
// a one-instruction body. OnRetire observers run here, which is why Run
// single-steps whenever one is attached.
func (c *CPU) Step() error {
	err := c.step()
	if c.tel != nil {
		c.telFlush()
	}
	return err
}

// step is Step without the count-only retirement flush, for Run's loops,
// which flush once when Run returns.
func (c *CPU) step() error {
	if c.halted {
		return ErrHalted
	}
	var one [1]isa.Instruction
	var ok bool
	if one[0], ok = c.fetchDecode(c.PC); !ok {
		var err error
		if one[0], err = c.fetchDecodeMiss(c.PC); err != nil {
			return &Fault{PC: c.PC, Err: err}
		}
	}
	pc := c.PC
	var err error
	if opTab[one[0].Op].class.terminates() {
		_, err = c.retire(nil, &one[0], nil)
	} else {
		_, err = c.retire(one[:], nil, nil)
	}
	if err == nil && c.OnRetire != nil {
		c.OnRetire(pc, one[0])
	}
	return err
}

// serialize executes a serializing exit: the fences drain every
// in-flight result, and SYSCALL additionally hands the core to its
// handler (with PC already past the instruction). On an error c.PC is
// where the fault is reported: the fence itself, or wherever the
// SYSCALL handler left the core.
func (c *CPU) serialize(in isa.Instruction) error {
	if in.Op == isa.SYSCALL {
		c.drain()
		c.syscalls++
		c.Cycle += 50
		c.PC = c.next()
		if c.OnSyscall == nil {
			return errors.New("cpu: SYSCALL with no handler")
		}
		return c.OnSyscall(c)
	}
	if in.Op == isa.MFENCE && c.cfg.PrivilegedFlush {
		return errPrivileged
	}
	c.drain()
	c.fences++
	c.Cycle += c.cfg.FenceCost
	c.PC = c.next()
	return nil
}

// telEmit is the shared outlined emit behind every core hook site: the
// disabled path at each site stays a bare nil check (plus at most a
// window compare), and the Event construction never occupies a hot
// function's code footprint. Every call site checks c.tel != nil.
//
//crspectrevet:guarded
//go:noinline
func (c *CPU) telEmit(kind telemetry.Kind, cyc, pc, addr, val uint64) {
	c.tel.Emit(telemetry.Event{Kind: kind, Cycle: cyc, PC: pc, Addr: addr, Val: val})
}

// telFlush tells a recorder that only counts retirements how many
// retired since it was last told; a recorder that stores them has had
// each one emitted. Every call site checks c.tel != nil.
//
//crspectrevet:guarded
func (c *CPU) telFlush() {
	if !c.telRetire && c.instret != c.telInstret {
		c.tel.Add(telemetry.KindRetire, c.instret-c.telInstret)
		c.telInstret = c.instret
	}
}

// Run executes until HALT or until maxInstr instructions retire,
// returning ErrBudget in the latter case. When the block tier is enabled
// (the default) it dispatches compiled superblocks (blockexec.go);
// per-instruction observers (OnRetire) and NoBlocks force the
// single-step loop. Both tiers are the same machine — identical Cycle,
// counters, speculation and faults — differing only in host throughput.
func (c *CPU) Run(maxInstr uint64) error {
	err := c.run(maxInstr)
	if c.tel != nil {
		c.telFlush()
	}
	return err
}

// run is Run without the count-only retirement flush.
func (c *CPU) run(maxInstr uint64) error {
	if !c.blocksOff && c.OnRetire == nil {
		return c.runBlocks(maxInstr)
	}
	stop := c.stopCycle
	for i := uint64(0); i < maxInstr; i++ {
		if c.halted {
			return nil
		}
		if err := c.step(); err != nil {
			return err
		}
		if c.Cycle >= stop {
			return nil
		}
	}
	if c.halted {
		return nil
	}
	return ErrBudget
}

// RunUntilCycle is Run with a cycle horizon: it additionally stops at
// the first instruction whose retirement puts the core clock at or past
// stopCycle (returning nil; the caller reads Cycle/Halted to see why it
// stopped). The stop lands on exactly that retirement in both tiers —
// the retire kernel checks the horizon after every instruction, and
// every retire point is an architectural boundary — so cycle-boundary
// observers like the PMU sampler read byte-identical snapshots whichever
// tier ran.
func (c *CPU) RunUntilCycle(maxInstr, stopCycle uint64) error {
	c.stopCycle = stopCycle
	err := c.Run(maxInstr)
	c.stopCycle = ^uint64(0)
	return err
}

// next is the fall-through PC for the current instruction.
func (c *CPU) next() uint64 { return c.PC + isa.InstrSize }

// retire is the retire kernel shared by both tiers: it retires body —
// a compiled block's straight-line instructions, or Step's single one —
// then term, the exit, when non-nil, and returns how many instructions
// retired. Every cycle charge, operand wait, hook site and fault identity
// is written here once, and the exit section is the one terminator
// resolver; block tier and single-step tier differ only in how many
// instructions one call retires.
//
// The kernel keeps PC, Cycle and the retire count in locals and writes
// them back only at exits and around calls into helpers that read core
// state (the store-bypass machinery, interfere, and — because the
// hierarchy's event clock points at c.Cycle — every cache access on a
// telemetry-enabled core); from the exit on, c.PC and c.Cycle are
// authoritative. The lazy-sync invariants are: c.PC/c.Cycle/c.instret
// are authoritative again at every return, and current before every such
// helper call.
//
// It stops before the exit after a retirement that crosses the cycle
// horizon (RunUntilCycle) and after a store that dirtied one of b's own
// pages (the remaining cached decodes, the exit's included, can no
// longer be trusted: RWX self-modification, so the outer loop
// revalidates or recompiles; b is nil for Step, whose body has no
// further decodes to distrust), and at a fault, with the faulting
// instruction not retired. body never holds an exit: compileBlock and
// Step route instructions by the same op-table test, terminates.
//
// Every telEmit below is dominated by telOn, the c.tel != nil guard
// hoisted once per call — an idiom the vet pass cannot trace. The
// retirement sites read c.telRetire behind telOn, so the nil path stays
// the one hoisted check and the body loop carries no more state.
//
//crspectrevet:guarded
func (c *CPU) retire(body []isa.Instruction, term *isa.Instruction, b *block) (int, error) {
	var (
		pc    = c.PC
		cyc   = c.Cycle
		telOn = c.tel != nil
		stop  = c.stopCycle
	)
	// i counts the instructions retired so far: each iteration either
	// retires body[i] or returns. pc is body[i]'s PC.
	for i := 0; i < len(body); i++ {
		// The instruction is read in place. A copy goes to the stack
		// as one 16-byte store that the next load (in.Op) must wait on,
		// and that wait depended on where the frame happened to sit:
		// the same code ran Table I 1.7x slower at one stack depth
		// than at another. A body is written only when compileBlock
		// fills its block, and it refills only blocks Reset freed, so
		// the pointer stays valid for the iteration.
		in := &body[i]
		op := opTab[in.Op]
		rd, rs1, rs2 := in.Rd&15, in.Rs1&15, in.Rs2&15
		switch op.class {
		case clsNop:
			cyc++

		case clsMovi:
			c.Regs[rd] = uint64(in.Imm)
			cyc++
			c.regReady[rd] = cyc

		case clsMov:
			cyc = c.wait1(rs1, cyc)
			c.Regs[rd] = c.Regs[rs1]
			cyc++
			c.regReady[rd] = cyc

		case clsALU:
			cyc = c.wait2(rs1, rs2, cyc)
			v := c.Regs[rs2]
			if v == 0 && op.divides {
				return c.retireFault(pc, cyc, i, errDivZero)
			}
			c.Regs[rd] = alu(op.base, c.Regs[rs1], v)
			cyc += uint64(op.cost)
			c.regReady[rd] = cyc

		case clsALUImm:
			cyc = c.wait1(rs1, cyc)
			v := uint64(in.Imm)
			if v == 0 && op.divides {
				return c.retireFault(pc, cyc, i, errDivZero)
			}
			c.Regs[rd] = alu(op.base, c.Regs[rs1], v)
			cyc += uint64(op.cost)
			c.regReady[rd] = cyc

		case clsLoad:
			cyc = c.wait1(rs1, cyc)
			addr := c.Regs[rs1] + uint64(in.Imm)
			var v uint64
			var err error
			if in.Op == isa.LOADB {
				var bb byte
				bb, err = c.Mem.Read8(addr)
				v = uint64(bb)
			} else {
				v, err = c.Mem.Read64(addr)
			}
			if err != nil {
				return c.retireFault(pc, cyc, i, err)
			}
			if telOn {
				c.Cycle = cyc // the hierarchy's event clock reads c.Cycle
			}
			lat, _ := c.Caches.Access(addr)
			c.loads++
			if len(c.pendingStores) != 0 {
				// bypassCheck derives the episode entry from PC and prunes
				// by the core clock: sync both, reabsorb the stall after.
				c.PC = pc
				c.Cycle = cyc
				c.bypassCheck(*in, addr, v, lat)
				cyc = c.Cycle
			}
			if addr < c.probeHi && addr >= c.probeLo && telOn {
				c.telEmit(telemetry.KindCovertProbe, cyc, pc, addr, lat)
			}
			issue := cyc
			cyc++
			c.Regs[rd] = v
			c.regReady[rd] = issue + lat

		case clsStore:
			cyc = c.wait1(rs1, cyc)
			addr := c.Regs[rs1] + uint64(in.Imm)
			if c.cfg.SpeculationEnabled && !c.cfg.DisableStoreBypass && c.regReady[rs2] > cyc {
				// Data register still in flight: the value written below is
				// architecturally correct (the register file always is), but
				// younger loads may speculatively bypass it (Spectre v4).
				c.Cycle = cyc // trackPendingStore prunes by the core clock
				c.trackPendingStore(in.Op, addr, c.regReady[rs2])
			}
			var err error
			if in.Op == isa.STOREB {
				err = c.Mem.Write8(addr, byte(c.Regs[rs2]))
			} else {
				err = c.Mem.Write64(addr, c.Regs[rs2])
			}
			if err != nil {
				return c.retireFault(pc, cyc, i, err)
			}
			if telOn {
				c.Cycle = cyc
			}
			c.Caches.Access(addr) // write-allocate
			c.stores++
			if addr < c.smashHi && addr+uint64(op.width) > c.smashLo && telOn {
				c.telEmit(telemetry.KindStackSmash, cyc, pc, addr, c.Regs[rs2])
			}
			cyc++

		case clsPush:
			sp := c.Regs[isa.RegSP] - 8
			if err := c.Mem.Write64(sp, c.Regs[rs1]); err != nil {
				return c.retireFault(pc, cyc, i, err)
			}
			if telOn {
				c.Cycle = cyc
			}
			c.Caches.Access(sp)
			c.Regs[isa.RegSP] = sp
			c.stores++
			cyc++
			c.regReady[isa.RegSP] = cyc

		case clsPop:
			sp := c.Regs[isa.RegSP]
			v, err := c.Mem.Read64(sp)
			if err != nil {
				return c.retireFault(pc, cyc, i, err)
			}
			if telOn {
				c.Cycle = cyc
			}
			lat, _ := c.Caches.Access(sp)
			c.loads++
			issue := cyc
			cyc++
			c.Regs[rd] = v
			c.regReady[rd] = issue + lat
			c.Regs[isa.RegSP] = sp + 8
			c.regReady[isa.RegSP] = cyc

		case clsCmp:
			c.flagsReady = maxU64(cyc+1, maxU64(c.regReady[rs1], c.regReady[rs2]))
			c.setFlags(c.Regs[rs1], c.Regs[rs2])
			cyc++

		case clsCmpImm:
			c.flagsReady = maxU64(cyc+1, c.regReady[rs1])
			c.setFlags(c.Regs[rs1], uint64(in.Imm))
			cyc++

		case clsFlush:
			if c.cfg.PrivilegedFlush {
				return c.retireFault(pc, cyc, i, errPrivileged)
			}
			cyc = c.wait1(rs1, cyc)
			if telOn {
				c.Cycle = cyc
			}
			c.Caches.Flush(c.Regs[rs1] + uint64(in.Imm))
			c.flushes++
			cyc += c.cfg.FlushCost

		case clsRdtsc:
			c.Regs[rd] = cyc
			cyc++
			c.regReady[rd] = cyc

		}

		pc += isa.InstrSize
		if c.noiseNext != 0 {
			c.Cycle = cyc
			c.interfere()
		}
		if telOn && c.telRetire {
			c.telEmit(telemetry.KindRetire, cyc, pc-isa.InstrSize, 0, uint64(in.Op))
		}
		if (op.class == clsStore || op.class == clsPush) && b != nil &&
			(c.genTab[b.pg0] != b.gen0 || c.genTab[b.pg1] != b.gen1) ||
			cyc >= stop {
			// The store dirtied this block's own code, so the remaining
			// cached decodes (the exit's too) are stale; or this
			// retirement crossed the cycle horizon (RunUntilCycle), and
			// the observer must see state exactly here. Either way the
			// outer loop takes over.
			c.PC, c.Cycle = pc, cyc
			c.instret += uint64(i + 1)
			return i + 1, nil
		}
	}
	n := len(body)
	c.PC, c.Cycle = pc, cyc
	c.instret += uint64(n)
	if term == nil {
		return n, nil
	}

	// The exit: the one terminator resolver. The branch helpers engage
	// the predictors, launch the wrong-path episodes, and read and
	// advance core state themselves; a SYSCALL handler sees the body
	// retired.
	in := *term
	switch opTab[in.Op].class {
	case clsJmp:
		c.BP.Stats.Direct++
		c.Cycle++
		c.PC = uint64(in.Imm)

	case clsJcc:
		c.condBranch(in)

	case clsCall, clsCallr:
		target := c.Regs[in.Rs1&15] // read before the SP update below
		sp := c.Regs[isa.RegSP] - 8
		ret := pc + isa.InstrSize
		if err := c.Mem.Write64(sp, ret); err != nil {
			return c.exitFault(n, err)
		}
		c.Caches.Access(sp)
		c.Regs[isa.RegSP] = sp
		c.stores++
		c.BP.RSB.Push(ret)
		if in.Op == isa.CALL {
			c.BP.Stats.Direct++
			c.Cycle++
			c.regReady[isa.RegSP] = c.Cycle
			c.PC = uint64(in.Imm)
		} else {
			c.indirect(in.Rs1&15, target)
			c.PC = target
		}

	case clsJmpr:
		target := c.Regs[in.Rs1&15]
		c.indirect(in.Rs1&15, target)
		c.PC = target

	case clsRet:
		if err := c.ret(); err != nil {
			return c.exitFault(n, err)
		}

	case clsHalt:
		c.Cycle++
		c.halted = true

	case clsFence, clsSyscall:
		if err := c.serialize(in); err != nil {
			return c.exitFault(n, err)
		}
	}
	c.instret++
	if c.noiseNext != 0 {
		c.interfere()
	}
	// Read afresh, not telOn: a SYSCALL handler may have re-attached.
	if c.tel != nil && c.telRetire {
		c.telEmit(telemetry.KindRetire, c.Cycle, pc, 0, uint64(in.Op))
	}
	return n + 1, nil
}

// wait1/wait2 advance the kernel's local clock past operand readiness,
// charging the stall. Both are small enough to inline into the kernel.
func (c *CPU) wait1(r uint8, cyc uint64) uint64 {
	if rr := c.regReady[r]; rr > cyc {
		c.stallCycles += rr - cyc
		return rr
	}
	return cyc
}

func (c *CPU) wait2(r1, r2 uint8, cyc uint64) uint64 {
	if rr := c.regReady[r1]; rr > cyc {
		c.stallCycles += rr - cyc
		cyc = rr
	}
	if rr := c.regReady[r2]; rr > cyc {
		c.stallCycles += rr - cyc
		cyc = rr
	}
	return cyc
}

// retireFault syncs the lazily tracked core state back at a faulting
// instruction (which does not retire) and wraps the error with its PC.
// Outlined to keep the fault plumbing off the hot path.
//
//go:noinline
func (c *CPU) retireFault(pc, cyc uint64, n int, err error) (int, error) {
	c.PC, c.Cycle = pc, cyc
	c.instret += uint64(n)
	return n, &Fault{PC: pc, Err: err}
}

// exitFault wraps the error of an exit that failed, which does not
// retire, with c.PC: the exit's own PC for a CALL, RET or fence, and
// wherever serialize or the handler left it for a SYSCALL. Outlined
// like retireFault.
//
//go:noinline
func (c *CPU) exitFault(n int, err error) (int, error) {
	return n, &Fault{PC: c.PC, Err: err}
}

// condBranch resolves a conditional branch, engaging the predictor and —
// when the flags are not yet available and the prediction is wrong — a
// wrong-path speculation episode.
func (c *CPU) condBranch(in isa.Instruction) {
	c.BP.Stats.CondBranches++
	pc := c.PC
	actual := c.cond(in.Op)
	pred := c.BP.Cond.Predict(pc)
	target := uint64(in.Imm)
	fall := c.next()

	actualPC := fall
	if actual {
		actualPC = target
	}

	resolved := c.flagsReady <= c.Cycle
	if !resolved && pred == actual && c.cfg.ForceWrongPath && !c.cfg.FenceConditional {
		// Speculation-exposure mode (SpecFuzz): the predictor guessed
		// right, but the flags are in flight, so a differently-trained
		// predictor could have sent the front end down the other side.
		// Force that wrong path now — its cache fills survive the squash
		// exactly as a mistrained run's would, which is what the confirm
		// harness observes. The mispredicted case below already runs the
		// wrong path, so together both directions are always covered.
		wrongPC := fall
		if !actual {
			wrongPC = target
		}
		c.speculate(wrongPC, c.flagsReady+c.cfg.MispredictPenalty)
	}
	switch {
	case pred == actual:
		// Correct prediction: no bubble whether or not resolved.
		c.Cycle++
	case resolved:
		// Wrong but resolved immediately: refill penalty only.
		c.BP.Stats.CondMispred++
		c.Cycle += 1 + c.cfg.MispredictPenalty
	default:
		// Wrong and unresolved: the wrong path executes until the
		// flags' data returns plus the pipeline drain — unless the
		// platform fences conditional branches (context-sensitive
		// fencing), in which case the front end stalls instead.
		c.BP.Stats.CondMispred++
		if !c.cfg.FenceConditional {
			wrongPC := fall
			if pred {
				wrongPC = target
			}
			deadline := c.flagsReady + c.cfg.MispredictPenalty
			c.speculate(wrongPC, deadline)
		}
		if c.flagsReady > c.Cycle {
			c.stallCycles += c.flagsReady - c.Cycle
			c.Cycle = c.flagsReady
		}
		c.Cycle += c.cfg.MispredictPenalty
	}
	c.BP.Cond.Update(pc, actual)
	if pred != actual && c.tel != nil {
		c.telEmit(telemetry.KindBranchMispredict, c.Cycle, pc, actualPC, 0)
	}
	c.PC = actualPC
}

// indirect resolves an indirect branch through the BTB. When the target
// register is still in flight (e.g. a flushed function-pointer load) and
// the BTB holds a stale entry, the core transiently executes at the
// stale target until the true target returns — the Spectre-v2 style
// redirection window.
func (c *CPU) indirect(rs1 uint8, target uint64) {
	pc := c.PC
	c.BP.Stats.Indirect++
	pred, ok := c.BP.BTB.Predict(pc)
	resolved := c.regReady[rs1] <= c.Cycle
	switch {
	case ok && pred == target:
		// Correct prediction: no bubble whether or not resolved.
		c.Cycle++
	case resolved:
		c.BP.Stats.IndirectMiss++
		c.Cycle += 1 + c.cfg.MispredictPenalty
	default:
		c.BP.Stats.IndirectMiss++
		if ok && !c.cfg.Retpoline {
			// The stale BTB entry redirects the transient front end —
			// possibly to a target injected from an aliasing site (v2).
			// A retpolined binary's thunk never exposes the BTB's guess.
			c.indirectSpecs++
			c.speculate(pred, c.regReady[rs1]+c.cfg.MispredictPenalty)
		}
		if c.regReady[rs1] > c.Cycle {
			c.stallCycles += c.regReady[rs1] - c.Cycle
			c.Cycle = c.regReady[rs1]
		}
		c.Cycle += c.cfg.MispredictPenalty
	}
	c.BP.BTB.Update(pc, target)
	if !(ok && pred == target) && c.tel != nil {
		c.telEmit(telemetry.KindBranchMispredict, c.Cycle, pc, target, pred)
	}
}

// ret pops the architectural return address, predicting through the RSB.
// A mismatch (ROP chains, ret2spec) transiently executes at the RSB's
// stale prediction while the true address loads.
func (c *CPU) ret() error {
	c.BP.Stats.Returns++
	sp := c.Regs[isa.RegSP]
	actual, err := c.Mem.Read64(sp)
	if err != nil {
		return err
	}
	lat, _ := c.Caches.Access(sp)
	c.loads++
	c.Regs[isa.RegSP] = sp + 8

	pred, ok := c.BP.RSB.Pop()
	issue := c.Cycle
	if ok && pred == actual {
		c.Cycle++
	} else {
		c.BP.Stats.ReturnMispred++
		if ok && lat > c.Caches.Lat.L1Hit {
			c.speculate(pred, issue+lat+c.cfg.MispredictPenalty)
		}
		// The core cannot redirect until the true address returns.
		end := issue + lat + c.cfg.MispredictPenalty
		if end > c.Cycle {
			c.stallCycles += end - c.Cycle
			c.Cycle = end
		}
	}
	c.regReady[isa.RegSP] = c.Cycle
	if !(ok && pred == actual) && c.tel != nil {
		// An RSB-contradicting RET is the micro-architectural fingerprint
		// of a pivoted (ROP) return.
		c.telEmit(telemetry.KindRetPivot, c.Cycle, c.PC, actual, pred)
	}
	c.PC = actual
	return nil
}

func (c *CPU) setFlags(a, b uint64) {
	c.flagZ = a == b
	c.flagLT = int64(a) < int64(b)
	c.flagB = a < b
}

func (c *CPU) cond(op isa.Op) bool {
	return condEval(op, c.flagZ, c.flagLT, c.flagB)
}

func condEval(op isa.Op, z, lt, b bool) bool {
	switch op {
	case isa.JE:
		return z
	case isa.JNE:
		return !z
	case isa.JL:
		return lt
	case isa.JLE:
		return lt || z
	case isa.JG:
		return !lt && !z
	case isa.JGE:
		return !lt
	case isa.JB:
		return b
	case isa.JBE:
		return b || z
	case isa.JA:
		return !b && !z
	case isa.JAE:
		return !b
	}
	return false
}

var errDivZero = errors.New("cpu: division by zero")

// alu evaluates a register-form ALU operation — the one definition of
// ALU semantics every execution path uses (immediate forms map to their
// register form through opTab's base). Callers fault a zero divisor
// (opInfo.divides) before calling. It inlines into every call site, and
// it is two short switches rather than one 11-way switch on purpose: Go
// compiles the latter to a jump table, and that second indirect jump
// after the kernel's class dispatch mispredicts far more often than this
// compare tree (measured: the tree gives about a fifth more block-tier
// throughput).
func alu(op isa.Op, a, b uint64) uint64 {
	if op < isa.AND {
		switch op {
		case isa.ADD:
			return a + b
		case isa.SUB:
			return a - b
		case isa.MUL:
			return a * b
		case isa.DIV:
			return a / b
		}
		return a % b // MOD
	}
	switch op {
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << (b & 63)
	case isa.SHR:
		return a >> (b & 63)
	}
	return uint64(int64(a) >> (b & 63)) // SAR
}

// opClass is an opcode's execution class: the one dispatch key of the
// retire kernel (whose control-flow cases are the terminator resolver)
// and of the wrong-path executor.
type opClass uint8

const (
	clsInvalid opClass = iota // no such opcode

	// Straight-line classes: retired by the kernel, held in block bodies.
	clsNop
	clsMovi
	clsMov
	clsALU    // rd = rs1 <base> rs2
	clsALUImm // rd = rs1 <base> imm
	clsLoad
	clsStore
	clsPush
	clsPop
	clsCmp
	clsCmpImm
	clsFlush
	clsRdtsc

	// Exits: a block's last instruction, resolved by the kernel's exit
	// section — the control transfers, HALT, and the serializing MFENCE,
	// LFENCE and SYSCALL.
	clsHalt
	clsJmp
	clsJcc
	clsCall
	clsCallr
	clsJmpr
	clsRet
	clsFence
	clsSyscall
)

// terminates reports whether the class ends a block, retired as the
// kernel's exit.
func (k opClass) terminates() bool { return k >= clsHalt }

// opInfo is everything the execution paths need to know about an opcode
// beyond its operands.
type opInfo struct {
	class opClass
	// base is the register-form ALU operation alu evaluates (the opcode
	// itself for the register forms).
	base isa.Op
	// width is the byte width of the data access: LOAD/STORE forms and
	// the stack word of PUSH/POP/CALL/CALLR/RET.
	width uint8
	// cost is the ALU result latency in cycles.
	cost uint8
	// divides marks the ALU operations whose zero second operand
	// faults (DIV/MOD and their immediate forms).
	divides bool
}

// opTab is the op table: the single definition of every per-opcode
// cycle cost, access width and immediate-form base the core uses.
var opTab = [isa.NumOps]opInfo{
	isa.NOP:  {class: clsNop},
	isa.HALT: {class: clsHalt},
	isa.MOVI: {class: clsMovi},
	isa.MOV:  {class: clsMov},

	isa.ADD: {class: clsALU, base: isa.ADD, cost: 1},
	isa.SUB: {class: clsALU, base: isa.SUB, cost: 1},
	isa.MUL: {class: clsALU, base: isa.MUL, cost: 3},
	isa.DIV: {class: clsALU, base: isa.DIV, cost: 20, divides: true},
	isa.MOD: {class: clsALU, base: isa.MOD, cost: 20, divides: true},
	isa.AND: {class: clsALU, base: isa.AND, cost: 1},
	isa.OR:  {class: clsALU, base: isa.OR, cost: 1},
	isa.XOR: {class: clsALU, base: isa.XOR, cost: 1},
	isa.SHL: {class: clsALU, base: isa.SHL, cost: 1},
	isa.SHR: {class: clsALU, base: isa.SHR, cost: 1},
	isa.SAR: {class: clsALU, base: isa.SAR, cost: 1},

	isa.ADDI: {class: clsALUImm, base: isa.ADD, cost: 1},
	isa.SUBI: {class: clsALUImm, base: isa.SUB, cost: 1},
	isa.MULI: {class: clsALUImm, base: isa.MUL, cost: 3},
	isa.DIVI: {class: clsALUImm, base: isa.DIV, cost: 20, divides: true},
	isa.MODI: {class: clsALUImm, base: isa.MOD, cost: 20, divides: true},
	isa.ANDI: {class: clsALUImm, base: isa.AND, cost: 1},
	isa.ORI:  {class: clsALUImm, base: isa.OR, cost: 1},
	isa.XORI: {class: clsALUImm, base: isa.XOR, cost: 1},
	isa.SHLI: {class: clsALUImm, base: isa.SHL, cost: 1},
	isa.SHRI: {class: clsALUImm, base: isa.SHR, cost: 1},

	isa.LOAD:   {class: clsLoad, width: 8},
	isa.LOADB:  {class: clsLoad, width: 1},
	isa.STORE:  {class: clsStore, width: 8},
	isa.STOREB: {class: clsStore, width: 1},
	isa.PUSH:   {class: clsPush, width: 8},
	isa.POP:    {class: clsPop, width: 8},

	isa.CMP:  {class: clsCmp},
	isa.CMPI: {class: clsCmpImm},

	isa.JMP:   {class: clsJmp},
	isa.JE:    {class: clsJcc},
	isa.JNE:   {class: clsJcc},
	isa.JL:    {class: clsJcc},
	isa.JLE:   {class: clsJcc},
	isa.JG:    {class: clsJcc},
	isa.JGE:   {class: clsJcc},
	isa.JB:    {class: clsJcc},
	isa.JBE:   {class: clsJcc},
	isa.JA:    {class: clsJcc},
	isa.JAE:   {class: clsJcc},
	isa.CALL:  {class: clsCall, width: 8},
	isa.CALLR: {class: clsCallr, width: 8},
	isa.JMPR:  {class: clsJmpr},
	isa.RET:   {class: clsRet, width: 8},

	isa.CLFLUSH: {class: clsFlush},
	isa.MFENCE:  {class: clsFence},
	isa.LFENCE:  {class: clsFence},
	isa.RDTSC:   {class: clsRdtsc},
	isa.SYSCALL: {class: clsSyscall},
}
