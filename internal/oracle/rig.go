package oracle

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
)

// rig holds the machines one RunProgram or RunTierDiff call runs on: two
// private memories, two cores and the reference machine. A call takes a
// rig from rigs, resets what it uses in place and puts it back before it
// returns, so a soak stops building and collecting 1 MiB memories and
// cores per program. Nothing a call returns references its rig: results
// are values, divergence reasons are formatted strings, and every fault
// in a Fault chain is allocated by the step that raised it.
type rig struct {
	mems  [2]mem.Memory
	cores [2]cpu.CPU
	ref   Machine
}

// rigs is the oracle's rig pool. The per-call functions' callers (cmd
// difftest's shards, the minimizer, the fuzzers, bench) hold no machines
// to pass in, so a pool keeps every signature as it is.
var rigs = sync.Pool{New: func() any { return new(rig) }}

// load returns both memories holding p exactly as p.NewMem would build
// it: the kept memories reset to p's size and loaded. An error names the
// side, x or y, whose memory failed.
func (r *rig) load(p progen.Program, x, y string) (*mem.Memory, *mem.Memory, error) {
	for i, side := range [2]string{x, y} {
		r.mems[i].Reset(p.MemSize)
		if err := p.LoadInto(&r.mems[i]); err != nil {
			return nil, nil, fmt.Errorf("oracle: %s memory: %w", side, err)
		}
	}
	return &r.mems[0], &r.mems[1], nil
}

// core returns core i reset over m under cfg, at p's entry.
func (r *rig) core(i int, m *mem.Memory, cfg cpu.Config, p progen.Program) *cpu.CPU {
	c := &r.cores[i]
	c.Reset(m, cfg)
	c.PC = p.CodeBase
	c.Regs[isa.RegSP] = p.StackTop
	return c
}
