// Spectre-v4 speculative store bypass. The scoreboard lets a STORE
// retire while its *data* register is still in flight (the address must
// be ready — the core stalls on it — but the value is renamed through
// the register file, whose architectural contents are always correct).
// Real memory-disambiguation hardware faces the same situation with the
// roles reversed and guesses: a younger load may issue *around* the
// not-yet-known store and read the stale memory contents. When the
// guess is wrong the load and its dependents are squashed and replayed
// — but by then the stale value, a dead secret in reused memory, has
// been transmitted into the cache. That wrong-path replay is modelled
// here as a speculation episode seeded with the stale value; the
// retired load always completes with the architecturally correct data,
// so the differential oracle sees no difference under any posture.
package cpu

import "repro/internal/isa"

// pendingStore records one retired store whose data register was in
// flight: until resolveAt the value is not considered visible to
// younger speculative loads, which may bypass it and observe old —
// captured before the overwrite — instead.
type pendingStore struct {
	addr      uint64
	size      uint64
	resolveAt uint64
	old       [8]byte
}

// trackPendingStore is called by the retired STORE/STOREB path (op)
// before the write goes to memory, only when the data register is in
// flight (resolveAt = the data register's ready cycle).
//
//go:noinline
func (c *CPU) trackPendingStore(op isa.Op, addr, resolveAt uint64) {
	size := uint64(opTab[op].width)
	live := c.pendingStores[:0]
	for _, p := range c.pendingStores {
		if p.resolveAt > c.Cycle {
			live = append(live, p)
		}
	}
	c.pendingStores = live
	ps := pendingStore{addr: addr, size: size, resolveAt: resolveAt}
	for i := uint64(0); i < size; i++ {
		b, err := c.Mem.Read8(addr + i)
		if err != nil {
			return // the write itself will fault; nothing to track
		}
		ps.old[i] = b
	}
	c.pendingStores = append(c.pendingStores, ps)
}

// bypassCheck is called by the retired LOAD/LOADB path when pending
// stores exist. If the load overlaps a store whose data is still in
// flight, the core launches a store-bypass episode: the wrong path
// continues at the next PC with the *stale* bytes in the destination
// register, is squashed when the store's data resolves, and the load
// retires with the correct value v. Returns the extra stall the
// mis-speculation costs (the pipeline cannot commit younger work until
// the replay completes).
//
//go:noinline
func (c *CPU) bypassCheck(in isa.Instruction, addr, v, lat uint64) {
	size := uint64(opTab[in.Op].width)
	// Prune resolved entries; find the youngest-surviving overlap set.
	live := c.pendingStores[:0]
	overlap := false
	resolveAt := uint64(0)
	for _, ps := range c.pendingStores {
		if ps.resolveAt <= c.Cycle {
			continue
		}
		live = append(live, ps)
		if addr < ps.addr+ps.size && ps.addr < addr+size {
			overlap = true
			if ps.resolveAt > resolveAt {
				resolveAt = ps.resolveAt
			}
		}
	}
	c.pendingStores = live
	if !overlap || c.cfg.DisableStoreBypass || !c.cfg.SpeculationEnabled {
		return
	}

	// Reconstruct the stale value: memory as it was before every still-
	// pending overlapping store, oldest first so the earliest capture
	// wins on multiply-written bytes.
	stale := v
	for i := len(c.pendingStores) - 1; i >= 0; i-- {
		ps := c.pendingStores[i]
		for j := uint64(0); j < size; j++ {
			a := addr + j
			if a >= ps.addr && a < ps.addr+ps.size {
				stale = stale&^(0xFF<<(8*j)) | uint64(ps.old[a-ps.addr])<<(8*j)
			}
		}
	}
	if stale == v {
		// Value-identical bypass: the guess was "wrong" but harmless;
		// real disambiguators do not replay on value match and neither
		// does the model — no episode, no penalty.
		return
	}

	c.bypasses++
	deadline := resolveAt + c.cfg.MispredictPenalty
	c.speculateSeeded(c.PC+isa.InstrSize, deadline, func(s *specState) {
		s.regs[in.Rd] = stale
		s.ready[in.Rd] = c.Cycle + lat
	})
	// The disambiguation flush: younger work is replayed once the
	// store's data resolves.
	if resolveAt > c.Cycle {
		c.stallCycles += resolveAt - c.Cycle
		c.Cycle = resolveAt
	}
	c.Cycle += c.cfg.MispredictPenalty
}
