// Package debug is the reproduction's GDB analogue — the methodology
// tool of the paper's §II-C ("We load the compiled victim binary in the
// Linux Debugger (GDB) to search for all instructions that end in a ret
// instruction"). It attaches to a simulated core and provides PC
// breakpoints at addresses or symbols, call-stack reconstruction,
// watchpoints, and symbolised state dumps. The retirement timeline is
// the core's telemetry recorder, which DumpEvents renders.
package debug

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Frame is one reconstructed call-stack entry.
type Frame struct {
	CallPC   uint64 // address of the CALL/CALLR
	TargetPC uint64 // callee entry
	Return   uint64 // return address the call pushed
}

// Debugger attaches to a core, observing retirements.
type Debugger struct {
	cpu *cpu.CPU

	symbols  map[string]uint64
	revSyms  map[uint64]string
	symAddrs []uint64

	breakpoints map[uint64]bool
	hitBreak    *ErrBreak

	stack []Frame

	watches    []watchRegion
	watchHits  []WatchHit
	watchNames []string
}

// ErrBreak reports that execution stopped at a breakpoint, with the
// instruction that retired just before it.
type ErrBreak struct {
	Seq   uint64 // retirement index, from the core's retired count
	Cycle uint64 // cycle at retirement
	PC    uint64
	Instr isa.Instruction
}

func (e *ErrBreak) Error() string {
	return fmt.Sprintf("debug: breakpoint at %#x (seq %d)", e.PC, e.Seq)
}

// Attach wires a debugger onto the core. It replaces the core's
// OnRetire hook.
func Attach(c *cpu.CPU) *Debugger {
	d := &Debugger{
		cpu:         c,
		breakpoints: map[uint64]bool{},
		symbols:     map[string]uint64{},
		revSyms:     map[uint64]string{},
	}
	c.OnRetire = d.onRetire
	return d
}

// AddSymbols registers a symbol table (e.g. a linked image's) for
// symbolised output and symbolic breakpoints. Where several names share
// an address — a loop label at the top of its function, say — Symbolize
// renders the lexicographically smallest, so output never depends on
// map order.
func (d *Debugger) AddSymbols(symbols map[string]uint64) {
	for name, addr := range symbols {
		d.symbols[name] = addr
		if cur, ok := d.revSyms[addr]; !ok || name < cur {
			d.revSyms[addr] = name
		}
	}
	d.symAddrs = d.symAddrs[:0]
	for addr := range d.revSyms {
		d.symAddrs = append(d.symAddrs, addr)
	}
	sort.Slice(d.symAddrs, func(i, j int) bool { return d.symAddrs[i] < d.symAddrs[j] })
}

// Symbolize renders an address as "symbol+offset" when a symbol at or
// below it is known, else hex.
func (d *Debugger) Symbolize(addr uint64) string {
	i := sort.Search(len(d.symAddrs), func(i int) bool { return d.symAddrs[i] > addr })
	if i == 0 {
		return fmt.Sprintf("%#x", addr)
	}
	base := d.symAddrs[i-1]
	name := d.revSyms[base]
	if off := addr - base; off != 0 {
		// Far offsets are likelier to be a different, unnamed region.
		if off > 1<<16 {
			return fmt.Sprintf("%#x", addr)
		}
		return fmt.Sprintf("%s+%#x", name, off)
	}
	return name
}

// Break sets a breakpoint at an absolute address.
func (d *Debugger) Break(addr uint64) { d.breakpoints[addr] = true }

// BreakSymbol sets a breakpoint at a registered symbol.
func (d *Debugger) BreakSymbol(name string) error {
	addr, ok := d.symbols[name]
	if !ok {
		return fmt.Errorf("debug: unknown symbol %q", name)
	}
	d.Break(addr)
	return nil
}

// ClearBreak removes a breakpoint.
func (d *Debugger) ClearBreak(addr uint64) { delete(d.breakpoints, addr) }

func (d *Debugger) onRetire(pc uint64, in isa.Instruction) {
	switch in.Op {
	case isa.CALL, isa.CALLR:
		d.stack = append(d.stack, Frame{CallPC: pc, TargetPC: d.cpu.PC, Return: pc + isa.InstrSize})
	case isa.RET:
		// A ROP chain returns to addresses no call produced; pop only a
		// matching frame so hijacks leave the mismatch visible.
		if n := len(d.stack); n > 0 && d.stack[n-1].Return == d.cpu.PC {
			d.stack = d.stack[:n-1]
		}
	}
	if d.breakpoints[d.cpu.PC] {
		d.hitBreak = &ErrBreak{Seq: d.cpu.Instret() - 1, Cycle: d.cpu.Cycle, PC: pc, Instr: in}
	}
}

// Run executes until a breakpoint, HALT or the budget; a breakpoint stop
// returns *ErrBreak with the core positioned at the breakpoint address.
func (d *Debugger) Run(budget uint64) error {
	d.hitBreak = nil
	for i := uint64(0); i < budget; i++ {
		if d.cpu.Halted() {
			return nil
		}
		if err := d.cpu.Step(); err != nil {
			return err
		}
		if br := d.hitBreak; br != nil {
			d.hitBreak = nil
			return br
		}
	}
	if d.cpu.Halted() {
		return nil
	}
	return cpu.ErrBudget
}

// Step retires one instruction.
func (d *Debugger) Step() error { return d.cpu.Step() }

// CallStack returns the reconstructed frames, outermost first.
func (d *Debugger) CallStack() []Frame {
	return append([]Frame(nil), d.stack...)
}

// DumpState writes a GDB-style state report: registers and the call
// stack, symbolised. DumpEvents renders the timeline that led there.
func (d *Debugger) DumpState(w io.Writer) {
	c := d.cpu
	fmt.Fprintf(w, "pc  = %-24s cycle=%d instret=%d\n", d.Symbolize(c.PC), c.Cycle, c.Instret())
	for i := 0; i < isa.NumRegs; i++ {
		name := fmt.Sprintf("r%d", i)
		switch i {
		case isa.RegSP:
			name = "sp"
		case isa.RegBP:
			name = "bp"
		}
		fmt.Fprintf(w, "%-3s = %#016x", name, c.Regs[i])
		if (i+1)%2 == 0 {
			fmt.Fprintln(w)
		} else {
			fmt.Fprint(w, "   ")
		}
	}
	fmt.Fprintln(w, "call stack (innermost last):")
	for _, f := range d.stack {
		fmt.Fprintf(w, "  %s -> %s (ret %s)\n",
			d.Symbolize(f.CallPC), d.Symbolize(f.TargetPC), d.Symbolize(f.Return))
	}
}

// String summarises the debugger state in one line.
func (d *Debugger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "debug{pc=%s depth=%d retired=%d bps=%d}",
		d.Symbolize(d.cpu.PC), len(d.stack), d.cpu.Instret(), len(d.breakpoints))
	return b.String()
}
