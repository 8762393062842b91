// Package gadget implements ROP gadget discovery and chain construction
// over linked code images — the reproduction of the paper's §II-C
// methodology ("load the compiled victim binary in GDB and search for all
// instructions that end in a ret instruction"). Because the simulated ISA
// is fixed-width, gadgets are aligned instruction suffixes; the scanner
// walks every code slot and collects short sequences terminating in RET.
package gadget

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Gadget is a sequence of instructions ending in RET, located at Addr in
// the scanned image.
type Gadget struct {
	Addr   uint64
	Instrs []isa.Instruction // includes the trailing RET
}

// Len returns the number of instructions including the trailing RET.
func (g Gadget) Len() int { return len(g.Instrs) }

// String renders the gadget in the compact "a; b; ret" exploit-dev style.
func (g Gadget) String() string {
	parts := make([]string, len(g.Instrs))
	for i, in := range g.Instrs {
		parts[i] = in.String()
	}
	return fmt.Sprintf("%#x: %s", g.Addr, strings.Join(parts, "; "))
}

// Scan finds every gadget of at most maxLen instructions (counting the
// RET) in the image's code section. Gadgets are returned sorted by
// address, shortest first at equal addresses.
func Scan(img *isa.Image, maxLen int) []Gadget {
	if maxLen < 1 {
		maxLen = 1
	}
	slots := isa.DecodeSlots(img.Code)
	var out []Gadget
	for i, in := range slots.Instrs {
		if !slots.Valid(i) || in.Op != isa.RET {
			continue
		}
		// Walk backwards up to maxLen-1 preceding instructions. Every
		// suffix that decodes cleanly and is fall-through (no control
		// flow before the RET) is a usable gadget.
		for back := 0; back < maxLen; back++ {
			start := i - back
			if start < 0 {
				break
			}
			ok := true
			for j := start; j < i; j++ {
				if op := slots.Instrs[j].Op; !slots.Valid(j) || op.IsBranch() || op == isa.HALT {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			out = append(out, Gadget{
				Addr:   img.Base + uint64(start*isa.InstrSize),
				Instrs: append([]isa.Instruction(nil), slots.Instrs[start:i+1]...),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Addr != out[b].Addr {
			return out[a].Addr < out[b].Addr
		}
		return out[a].Len() < out[b].Len()
	})
	return out
}

// Catalog indexes scanned gadgets by capability for chain construction.
type Catalog struct {
	gadgets []Gadget
	popReg  map[uint8]Gadget // "pop rN; ret"
	syscall *Gadget          // "syscall; ret"
	retOnly *Gadget          // bare "ret" (stack pivot / nop)
}

// NewCatalog classifies the scan output. When several gadgets provide
// the same capability the lowest-addressed one wins (determinism).
func NewCatalog(gadgets []Gadget) *Catalog {
	c := &Catalog{gadgets: gadgets, popReg: map[uint8]Gadget{}}
	for _, g := range gadgets {
		switch {
		case g.Len() == 2 && g.Instrs[0].Op == isa.POP:
			rd := g.Instrs[0].Rd
			if _, have := c.popReg[rd]; !have {
				c.popReg[rd] = g
			}
		case g.Len() == 2 && g.Instrs[0].Op == isa.SYSCALL:
			if c.syscall == nil {
				gCopy := g
				c.syscall = &gCopy
			}
		case g.Len() == 1:
			if c.retOnly == nil {
				gCopy := g
				c.retOnly = &gCopy
			}
		}
	}
	return c
}

// ScanAndCatalog is the common Scan+NewCatalog composition.
func ScanAndCatalog(img *isa.Image, maxLen int) *Catalog {
	return NewCatalog(Scan(img, maxLen))
}

// All returns every gadget in the catalog.
func (c *Catalog) All() []Gadget { return c.gadgets }

// PopReg returns a "pop rN; ret" gadget for the given register.
func (c *Catalog) PopReg(r uint8) (Gadget, bool) {
	g, ok := c.popReg[r]
	return g, ok
}

// Syscall returns a "syscall; ret" gadget.
func (c *Catalog) Syscall() (Gadget, bool) {
	if c.syscall == nil {
		return Gadget{}, false
	}
	return *c.syscall, true
}

// RetOnly returns a bare "ret" gadget (a ROP NOP sled element).
func (c *Catalog) RetOnly() (Gadget, bool) {
	if c.retOnly == nil {
		return Gadget{}, false
	}
	return *c.retOnly, true
}

// Chain is an ordered list of 64-bit stack words: gadget addresses
// interleaved with the immediates their POPs consume. Written over a
// saved return address, it drives the ROP execution.
type Chain struct {
	words []uint64
	desc  []string
}

// AppendGadget adds a gadget address to the chain.
func (ch *Chain) AppendGadget(g Gadget) {
	ch.words = append(ch.words, g.Addr)
	ch.desc = append(ch.desc, g.String())
}

// AppendValue adds a literal data word (consumed by a preceding POP).
func (ch *Chain) AppendValue(v uint64) {
	ch.words = append(ch.words, v)
	ch.desc = append(ch.desc, fmt.Sprintf("value %#x", v))
}

// Words returns the chain's stack words in push order (lowest address
// first — the first word overwrites the saved return address).
func (ch *Chain) Words() []uint64 { return ch.words }

// Len returns the number of words in the chain.
func (ch *Chain) Len() int { return len(ch.words) }

// Describe returns a human-readable view of the chain, one element per
// line, for the ropdemo tool.
func (ch *Chain) Describe() string { return strings.Join(ch.desc, "\n") }

// Bytes serialises the chain little-endian, ready to append to an
// overflow payload.
func (ch *Chain) Bytes() []byte {
	out := make([]byte, 8*len(ch.words))
	for i, w := range ch.words {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out
}

// BuildSetRegs constructs a chain that loads each (register, value) pair
// via "pop rN; ret" gadgets, in the order given.
func (c *Catalog) BuildSetRegs(pairs ...RegValue) (*Chain, error) {
	ch := &Chain{}
	for _, p := range pairs {
		g, ok := c.PopReg(p.Reg)
		if !ok {
			return nil, fmt.Errorf("gadget: no 'pop r%d; ret' gadget available", p.Reg)
		}
		ch.AppendGadget(g)
		ch.AppendValue(p.Value)
	}
	return ch, nil
}

// RegValue pairs a register with the value a chain should load into it.
type RegValue struct {
	Reg   uint8
	Value uint64
}

// BuildSyscall constructs the full "set registers then syscall" chain —
// the reproduction of the paper's execve chain.
func (c *Catalog) BuildSyscall(pairs ...RegValue) (*Chain, error) {
	ch, err := c.BuildSetRegs(pairs...)
	if err != nil {
		return nil, err
	}
	g, ok := c.Syscall()
	if !ok {
		return nil, fmt.Errorf("gadget: no 'syscall; ret' gadget available")
	}
	ch.AppendGadget(g)
	return ch, nil
}
