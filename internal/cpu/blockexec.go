// Superblock execution (see blockcache.go for the cache and compile
// side). runBlocks is Run's fast tier: it retires whole compiled blocks
// per dispatch, paying the fetch/decode and budget checks once per block.
// A block — its body and its exit (a branch, HALT, or a serializing
// fence or SYSCALL) — goes through the same retire kernel (exec.go) that
// Step runs on a single instruction, so the tiers share one definition
// of every opcode's semantics and timing. What is
// specific to this tier is the glue around the kernel: the lazy PC/Cycle
// sync across a whole body, successor chaining, mid-block
// self-modification and the cycle horizon (which can stop the core
// between a body's last instruction and the exit). oracle.RunTierDiff,
// FuzzBlockCompile and the difftest ring guard that glue — the tier's
// contract is "same machine": Cycle, stallCycles and every PMU counter
// match the single-step tier bit for bit (golden figure CSVs difference
// them).
package cpu

import "repro/internal/isa"

// runBlocks executes until HALT or maxInstr retired instructions, like
// the single-step loop in Run, through the block cache. A PC no block
// can start at (unaligned, or an instruction that does not fetch and
// decode, which faults) and a block larger than the remaining budget
// retire via step.
func (c *CPU) runBlocks(maxInstr uint64) error {
	var (
		executed uint64
		prev     *block // last fully executed block, for successor chaining
		succIdx  int    // 0: fell through to prev.endPC, 1: taken elsewhere
		genTab   = c.genTab
		stop     = c.stopCycle
	)
	for executed < maxInstr {
		if c.halted {
			return nil
		}
		pc := c.PC
		var b *block
		if prev != nil {
			if s := prev.succ[succIdx]; s != nil && s.startPC == pc &&
				genTab[s.pg0] == s.gen0 && genTab[s.pg1] == s.gen1 {
				b = s
				c.blkHits++
				s.hits++
			}
		}
		if b == nil {
			b = c.lookupBlock(pc)
			if b != nil && prev != nil {
				prev.succ[succIdx] = b
			}
		}
		prev = nil
		if b == nil || uint64(b.nretire) > maxInstr-executed {
			if err := c.step(); err != nil {
				return err
			}
			executed++
			if c.Cycle >= stop {
				return nil
			}
			continue
		}
		var term *isa.Instruction
		if b.nretire > len(b.body) {
			term = &b.term
		}
		n, err := c.retire(b.body, term, b)
		executed += uint64(n)
		if err != nil {
			return err
		}
		if c.Cycle >= stop {
			return nil
		}
		if n == b.nretire {
			// Full execution: chain the next block from this one's exit.
			// A partial execution (self-modified page mid-block) must not
			// chain — the successor pointers may describe stale code.
			prev = b
			if c.PC == b.endPC {
				succIdx = 0
			} else {
				succIdx = 1
			}
		}
	}
	if c.halted {
		return nil
	}
	return ErrBudget
}
