package cpu

import (
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// specByte is one byte of an episode's private store buffer. visibleAt
// is the cycle the producing store's data resolves: a speculative load
// issued earlier may *bypass* the entry and read stale memory instead —
// the Spectre-v4 disambiguation guess, inside an episode.
type specByte struct {
	b         byte
	visibleAt uint64
}

// specState is the transient copy of architectural state a wrong-path
// episode mutates. Registers, flags and a byte-granular store buffer are
// private to the episode and vanish at squash; cache fills made by
// speculative loads are the only effects that survive (unless
// Config.SquashCacheEffects models an InvisiSpec-style defense).
type specState struct {
	regs     [isa.NumRegs]uint64
	ready    [isa.NumRegs]uint64
	flagZ    bool
	flagLT   bool
	flagB    bool
	flagsRdy uint64
	store    map[uint64]specByte
	filled   []uint64 // addresses whose loads missed (for squash rollback)
	// cyc is the episode-local cycle. A field rather than a local so the
	// cache hierarchy's event clock can point at it during a telemetry-
	// traced episode without forcing a per-episode heap allocation (the
	// zero-alloc gate in block_test.go).
	cyc uint64
}

// speculate executes the wrong path starting at pc until the episode's
// deadline cycle, the speculation window fills, a speculation barrier
// (LFENCE/MFENCE/SYSCALL/HALT) retires, or the path faults. The episode
// models out-of-order issue: each instruction costs one issue cycle,
// loads complete asynchronously, and consumers of in-flight values stall
// the episode clock. Architectural state is untouched.
func (c *CPU) speculate(pc, deadline uint64) {
	c.speculateSeeded(pc, deadline, nil)
}

// speculateSeeded is speculate with an optional hook that adjusts the
// episode's initial transient state — the store-bypass path seeds the
// bypassing load's destination with the stale value before the wrong
// path runs (ssb.go).
func (c *CPU) speculateSeeded(pc, deadline uint64, seed func(*specState)) {
	if !c.cfg.SpeculationEnabled {
		return
	}
	// Episodes are never nested (wrong paths do not re-speculate), so one
	// pooled specState per core serves them all: the store-buffer map and
	// the rollback list are cleared, not reallocated — with the block
	// tier this makes the whole retired+wrong-path hot loop allocation
	// free (the AllocsPerRun gate in block_test.go).
	s := &c.specScratch
	s.regs = c.Regs
	s.ready = c.regReady
	s.flagZ, s.flagLT, s.flagB = c.flagZ, c.flagLT, c.flagB
	s.flagsRdy = c.flagsReady
	if s.store == nil {
		s.store = make(map[uint64]specByte)
	} else {
		clear(s.store)
	}
	s.filled = s.filled[:0]
	if seed != nil {
		seed(s)
	}
	s.cyc = c.Cycle

	if c.tel != nil {
		c.telEmit(telemetry.KindSpecEnter, c.Cycle, pc, 0, deadline)
		// Repoint the hierarchy's event clock at the episode-local cycle
		// so wrong-path cache fills nest inside the episode's trace slice;
		// restored (with the squash emission) before returning.
		c.Caches.Clock = &s.cyc
	}

	wait := func(r uint8) {
		if s.ready[r] > s.cyc {
			s.cyc = s.ready[r]
		}
	}

	n := 0
loop:
	for ; n < c.cfg.SpecWindow && s.cyc < deadline; n++ {
		in, ok := c.fetchDecode(pc)
		if !ok {
			var err error
			if in, err = c.fetchDecodeMiss(pc); err != nil {
				break
			}
		}
		c.specInstr++
		next := pc + isa.InstrSize

		switch op := opTab[in.Op]; op.class {
		case clsNop:
			s.cyc++
			pc = next

		case clsMovi:
			s.regs[in.Rd] = uint64(in.Imm)
			s.cyc++
			s.ready[in.Rd] = s.cyc
			pc = next

		case clsMov:
			wait(in.Rs1)
			s.regs[in.Rd] = s.regs[in.Rs1]
			s.cyc++
			s.ready[in.Rd] = s.cyc
			pc = next

		case clsALU:
			wait(in.Rs1)
			wait(in.Rs2)
			v := s.regs[in.Rs2]
			if v == 0 && op.divides {
				break loop
			}
			s.regs[in.Rd] = alu(op.base, s.regs[in.Rs1], v)
			s.cyc += uint64(op.cost)
			s.ready[in.Rd] = s.cyc
			pc = next

		case clsALUImm:
			wait(in.Rs1)
			v := uint64(in.Imm)
			if v == 0 && op.divides {
				break loop
			}
			s.regs[in.Rd] = alu(op.base, s.regs[in.Rs1], v)
			s.cyc += uint64(op.cost)
			s.ready[in.Rd] = s.cyc
			pc = next

		case clsLoad:
			wait(in.Rs1)
			if s.cyc >= deadline {
				break loop
			}
			addr := s.regs[in.Rs1] + uint64(in.Imm)
			v, err := c.specRead(s, addr, in.Op, s.cyc)
			if err != nil {
				break loop
			}
			lat, lvl := c.Caches.Access(addr)
			if lvl > 1 && c.cfg.SquashCacheEffects {
				s.filled = append(s.filled, addr)
			}
			c.specLoads++
			if addr < c.probeHi && addr >= c.probeLo && c.tel != nil {
				// The speculative transmit into the covert channel.
				c.telEmit(telemetry.KindCovertProbe, s.cyc, pc, addr, lat)
			}
			issue := s.cyc
			s.cyc++
			s.regs[in.Rd] = v
			s.ready[in.Rd] = issue + lat
			pc = next

		case clsStore:
			wait(in.Rs1)
			// Data still in flight leaves the entry invisible until it
			// resolves: younger speculative loads bypass it (Spectre v4).
			vis := s.cyc + 1
			if s.ready[in.Rs2] > vis {
				vis = s.ready[in.Rs2]
			}
			s.buffer(s.regs[in.Rs1]+uint64(in.Imm), s.regs[in.Rs2], op.width, vis)
			s.cyc++
			pc = next

		case clsPush:
			sp := s.regs[isa.RegSP] - 8
			vis := s.cyc + 1
			if s.ready[in.Rs1] > vis {
				vis = s.ready[in.Rs1]
			}
			s.buffer(sp, s.regs[in.Rs1], op.width, vis)
			s.regs[isa.RegSP] = sp
			s.cyc++
			s.ready[isa.RegSP] = s.cyc
			pc = next

		case clsPop:
			sp := s.regs[isa.RegSP]
			v, err := c.specRead(s, sp, in.Op, s.cyc)
			if err != nil {
				break loop
			}
			lat, lvl := c.Caches.Access(sp)
			if lvl > 1 && c.cfg.SquashCacheEffects {
				s.filled = append(s.filled, sp)
			}
			c.specLoads++
			issue := s.cyc
			s.cyc++
			s.regs[in.Rd] = v
			s.ready[in.Rd] = issue + lat
			s.regs[isa.RegSP] = sp + 8
			s.ready[isa.RegSP] = s.cyc
			pc = next

		case clsCmp:
			s.flagsRdy = maxU64(s.cyc+1, maxU64(s.ready[in.Rs1], s.ready[in.Rs2]))
			a, b := s.regs[in.Rs1], s.regs[in.Rs2]
			s.flagZ, s.flagLT, s.flagB = a == b, int64(a) < int64(b), a < b
			s.cyc++
			pc = next

		case clsCmpImm:
			s.flagsRdy = maxU64(s.cyc+1, s.ready[in.Rs1])
			a, b := s.regs[in.Rs1], uint64(in.Imm)
			s.flagZ, s.flagLT, s.flagB = a == b, int64(a) < int64(b), a < b
			s.cyc++
			pc = next

		case clsJmp:
			s.cyc++
			pc = uint64(in.Imm)

		case clsJcc:
			// Nested speculation is not modelled: the episode follows
			// the branch's functional outcome under its own flags.
			s.cyc++
			if condEval(in.Op, s.flagZ, s.flagLT, s.flagB) {
				pc = uint64(in.Imm)
			} else {
				pc = next
			}

		case clsCall, clsCallr:
			// The pushed return address is a constant: forwarded exactly,
			// visible immediately.
			sp := s.regs[isa.RegSP] - 8
			s.buffer(sp, next, op.width, s.cyc)
			s.regs[isa.RegSP] = sp
			s.cyc++
			s.ready[isa.RegSP] = s.cyc
			if op.class == clsCall {
				pc = uint64(in.Imm)
			} else if tgt, ok := c.specIndirectTarget(s, in.Rs1, pc, s.cyc); ok {
				pc = tgt
			} else {
				break loop
			}

		case clsJmpr:
			s.cyc++
			if tgt, ok := c.specIndirectTarget(s, in.Rs1, pc, s.cyc); ok {
				pc = tgt
			} else {
				break loop
			}

		case clsRet:
			sp := s.regs[isa.RegSP]
			v, err := c.specRead(s, sp, in.Op, s.cyc)
			if err != nil {
				break loop
			}
			s.regs[isa.RegSP] = sp + 8
			s.cyc++
			s.ready[isa.RegSP] = s.cyc
			pc = v

		case clsFlush:
			// CLFLUSH is not performed speculatively on real parts;
			// the episode treats it as a no-op slot.
			s.cyc++
			pc = next

		case clsRdtsc:
			s.regs[in.Rd] = s.cyc
			s.cyc++
			s.ready[in.Rd] = s.cyc
			pc = next

		default:
			// Speculation barriers (MFENCE/LFENCE/SYSCALL/HALT): the
			// episode cannot retire past them.
			break loop
		}
	}

	c.squashes++
	if c.cfg.SquashCacheEffects {
		for _, addr := range s.filled {
			c.Caches.Flush(addr)
		}
	}
	if c.tel != nil {
		c.telEmit(telemetry.KindSpecSquash, s.cyc, pc, 0, uint64(n))
		c.Caches.Clock = &c.Cycle
	}
}

// buffer records a width-byte little-endian store of v at addr in the
// episode's store buffer, invisible to loads issued before visibleAt.
func (s *specState) buffer(addr, v uint64, width uint8, visibleAt uint64) {
	for i := uint64(0); i < uint64(width); i++ {
		s.store[addr+i] = specByte{b: byte(v >> (8 * i)), visibleAt: visibleAt}
	}
}

// specIndirectTarget resolves an indirect branch target inside an
// episode at cycle cyc. A register whose value has resolved is followed
// functionally. An in-flight target is speculated *through* via the
// BTB's prediction for the site — which, with partial tags, may have
// been injected from a cross-trained aliasing site (Spectre v2). With
// no prediction the front end has nowhere to fetch from and the episode
// ends; under Retpoline the thunk's capture loop pins the transient
// path at the site, so the BTB is never consulted.
func (c *CPU) specIndirectTarget(s *specState, rs1 uint8, branchPC, cyc uint64) (uint64, bool) {
	if s.ready[rs1] <= cyc {
		return s.regs[rs1], true
	}
	if c.cfg.Retpoline {
		return 0, false
	}
	if pred, ok := c.BP.BTB.Predict(branchPC); ok {
		c.indirectSpecs++
		return pred, true
	}
	return 0, false
}

// specRead performs op's data read (opTab width bytes, little-endian) at
// episode cycle cyc, forwarding from the episode's store buffer and
// falling back to permission-checked memory. Entries whose producing
// store's data has not resolved by cyc are not yet visible: the load
// bypasses them and reads the stale memory bytes underneath — the
// in-episode face of the Spectre-v4 guess (the retired-path face lives
// in ssb.go). Faults abort the episode (returned as errors).
func (c *CPU) specRead(s *specState, addr uint64, op isa.Op, cyc uint64) (uint64, error) {
	if len(s.store) == 0 {
		// No speculative stores to forward: one memory access.
		if op == isa.LOADB {
			b, err := c.Mem.Read8(addr)
			return uint64(b), err
		}
		return c.Mem.Read64(addr)
	}
	size := uint64(opTab[op].width)
	var v uint64
	for i := uint64(0); i < size; i++ {
		a := addr + i
		if e, ok := s.store[a]; ok && e.visibleAt <= cyc {
			v |= uint64(e.b) << (8 * i)
			continue
		}
		b, err := c.Mem.Read8(a)
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}
