// Package analysis is the static counterpart of the dynamic pipeline:
// it recovers control flow from guest binary images (cfg.go), runs a
// worklist abstract interpretation that tracks an attacker-taint lattice
// and speculation windows to flag Spectre-v1 gadgets (this file), and
// cross-checks its verdicts against the simulator (dynamic.go, the
// agreement tests). ROP chain planning is the dynamic rop package's.
//
// The taint lattice has two independent bits per register:
//
//	A — attacker-derived: the value is a function of an attacker-
//	    controlled input register (the Spectre "index").
//	S — transient secret: the value was loaded, inside a speculation
//	    window, through an A-tainted address — the out-of-bounds byte.
//
// MOVI and RDTSC write untainted constants (kill); MOV and the ALU
// families propagate the union of their sources; loads produce S inside
// a window when their address register is tainted. Memory is not
// modelled: stores drop taint, POP loads untainted data. That keeps the
// domain finite and the pass fast, at the cost of missing taint routed
// through memory — acceptable because the generated corpus and the
// spectre victims keep the index in registers, and spills would only
// produce false negatives, never disagreements on the labeled corpus.
//
// Speculation windows model cpu.speculate: a conditional branch whose
// CMP consumed a possibly in-flight (recently loaded) operand may
// mispredict and transiently execute up to SpecWindow instructions on
// either side. The abstraction opens a window on both successors of
// such a branch, decrements it per instruction, and closes it at the
// speculation barriers (LFENCE/MFENCE/SYSCALL/HALT), clearing S taint —
// transient values do not survive the squash. The static pass assumes
// the worst-case predictor (the branch may be mistrained), which the
// agreement corpus makes true dynamically by construction.
package analysis

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/isa"
)

// Taint bits. A value may carry both: a secret byte loaded through an
// attacker-controlled address is S (and stays attacker-addressed).
const (
	taintA uint8 = 1 << iota // attacker-derived
	taintS                   // transiently loaded secret
)

// Config tunes the static analysis.
type Config struct {
	// TaintedRegs are the registers holding attacker-controlled input
	// at every root (the victim's argument registers).
	TaintedRegs []uint8
	// SpecWindow is the modelled speculation window in instructions
	// (default: 64, matching cpu.DefaultConfig).
	SpecWindow int
	// MaxGadgetLen bounds the ROP gadgets AnalyzeImage counts
	// (default 4).
	MaxGadgetLen int
	// UninitSecret is the Pitchfork scan policy: every load executed
	// inside a speculation window yields a transient secret even when
	// its address carries no taint, because uninitialized (unlabeled)
	// guest memory is assumed secret. It turns whole benign images into
	// sweepable candidate sets — a window-guarded load whose value feeds
	// a second load is a leak candidate regardless of whether the image
	// has any labeled attacker input. Off, the lattice behaves exactly
	// as the labeled-corpus agreement contract pins it.
	UninitSecret bool
}

func (c Config) withDefaults() Config {
	if c.SpecWindow <= 0 {
		c.SpecWindow = 64
	}
	if c.MaxGadgetLen <= 0 {
		c.MaxGadgetLen = 4
	}
	return c
}

// Verdict classifies a flagged bounds-check access site.
type Verdict string

const (
	// VerdictLeak: a transmitting load depends on the transient secret
	// with no intervening fence — the site leaks through the cache.
	VerdictLeak Verdict = "leak"
	// VerdictMitigated: the secret is loaded transiently but every path
	// to a dependent transmit is cut by a fence or exceeds the window.
	VerdictMitigated Verdict = "mitigated"
	// VerdictNoTransmit: the transient secret is never used as an
	// address, so nothing reaches the cache side channel.
	VerdictNoTransmit Verdict = "no-transmit"
	// VerdictConfirmed: a static leak upgraded by the SpecFuzz-style
	// dynamic confirmation pass — the simulator, forced down both sides
	// of every in-flight branch, actually emitted a covert-probe event
	// on the secret-selected cache line, and a concrete witness input
	// is attached. Only the confirm harness produces this verdict; the
	// static pass alone never does.
	VerdictConfirmed Verdict = "confirmed"
)

// Finding kinds: which speculation primitive the flagged site abuses.
// The zero value (v1, the bounds-check gadget) is omitted from JSON so
// existing artifacts are unchanged.
const (
	// FindingKindV2 marks an indirect branch whose target register may
	// still be in flight when the branch predicts — the BTB (not the
	// program) chooses the transient continuation, so an attacker who
	// can cross-train the entry runs arbitrary reachable code
	// speculatively. Reported as a leak at the branch site itself.
	FindingKindV2 = "v2-indirect"
	// FindingKindV4 marks a load that may speculatively bypass an
	// earlier store whose data was still in flight, transiently reading
	// the stale value underneath an attacker-addressed slot.
	FindingKindV4 = "v4-store-bypass"
)

// Finding is one flagged Spectre gadget: the guarding site (the
// conditional branch for v1, the bypassed store for v4, the indirect
// branch itself for v2), the speculative attacker-addressed load, and
// (for leaks) the dependent transmitting load plus a witness path
// through the CFG.
type Finding struct {
	Kind       string   `json:"kind,omitempty"` // "" (v1), FindingKindV2, FindingKindV4
	GuardPC    uint64   `json:"guard_pc"`
	AccessPC   uint64   `json:"access_pc"`
	TransmitPC uint64   `json:"transmit_pc,omitempty"`
	Verdict    Verdict  `json:"verdict"`
	Witness    []uint64 `json:"witness,omitempty"`
	// AttackerIndex marks the flagged access's address as attacker-
	// derived (A-taint) rather than merely secret under the
	// uninitialized-memory scan policy — the axis Teapot-style ranking
	// weighs hardest: an index the attacker steers reads *chosen*
	// memory, an uninit-secret candidate only reads *some* memory.
	AttackerIndex bool `json:"attacker_index,omitempty"`
}

// regState is the abstract state at one program point. All fields are
// comparable, so fixpoint detection is plain ==.
type regState struct {
	taint [isa.NumRegs]uint8
	// site records, per S-tainted register, the access-site PC whose
	// transient load produced the secret (provenance for findings).
	site [isa.NumRegs]uint64
	// inflight marks registers whose value may still be in flight from
	// a load — a CMP consuming one leaves the flags unresolved, which
	// is what arms wrong-path speculation.
	inflight uint16
	// win is the remaining speculation-window budget (0: not inside a
	// window); guard is the branch that opened it.
	win   int
	guard uint64
	// ssbWin is the store-bypass window: opened by a store over an
	// attacker-addressed slot whose data is still in flight (the
	// sanitizing store a v4 load may speculatively ignore); ssbStore is
	// the store that opened it.
	ssbWin   int
	ssbStore uint64
	// maskSeed/maskVal track the SLH idiom per register: maskSeed marks
	// a near-full-width right shift (the 0/1 sign extract), maskVal the
	// 0/-1 mask materialized from it. An AND with a maskVal register
	// clamps the value on the mispredicted path, clearing A taint.
	maskSeed uint16
	maskVal  uint16
	// flagsInflight: the last CMP consumed a possibly in-flight value.
	flagsInflight bool
	live          bool
}

func (s *regState) setInflight(r uint8, v bool) {
	if v {
		s.inflight |= 1 << r
	} else {
		s.inflight &^= 1 << r
	}
}

func (s *regState) isInflight(r uint8) bool { return s.inflight&(1<<r) != 0 }

// clearS drops every transient-secret bit: called when a window closes,
// because squashed values never reach architectural state.
func (s *regState) clearS() {
	for r := range s.taint {
		s.taint[r] &^= taintS
		if s.taint[r]&taintS == 0 {
			s.site[r] = 0
		}
	}
}

// join merges o into s, returning whether s changed. Taint and inflight
// union; win takes the max (keeping that side's guard); provenance
// keeps the lowest non-zero site PC for determinism.
func (s *regState) join(o regState) bool {
	if !o.live {
		return false
	}
	if !s.live {
		*s = o
		return true
	}
	changed := false
	for r := range s.taint {
		if t := s.taint[r] | o.taint[r]; t != s.taint[r] {
			s.taint[r] = t
			changed = true
		}
		os := o.site[r]
		if os != 0 && (s.site[r] == 0 || os < s.site[r]) {
			s.site[r] = os
			changed = true
		}
	}
	if inf := s.inflight | o.inflight; inf != s.inflight {
		s.inflight = inf
		changed = true
	}
	if o.win > s.win {
		s.win = o.win
		s.guard = o.guard
		changed = true
	}
	if o.ssbWin > s.ssbWin {
		s.ssbWin = o.ssbWin
		s.ssbStore = o.ssbStore
		changed = true
	}
	if ms := s.maskSeed | o.maskSeed; ms != s.maskSeed {
		s.maskSeed = ms
		changed = true
	}
	if mv := s.maskVal | o.maskVal; mv != s.maskVal {
		s.maskVal = mv
		changed = true
	}
	if o.flagsInflight && !s.flagsInflight {
		s.flagsInflight = true
		changed = true
	}
	return changed
}

// sitePair keys deduplicated (first, second) PC pairs.
type sitePair [2]uint64

// taintPass is the worklist abstract interpretation over one CFG. Its
// storage outlives a run: a scan worker runs every task on one pass,
// and each run clears what the last one left.
type taintPass struct {
	g   *CFG
	cfg Config
	// in is each block's joined entry state, by index in g.Blocks; a
	// block no run has reached holds a state that is not live.
	in   []regState
	work []int32
	// The sites below are recorded once per observation, in the
	// worklist's order, and findings merges the repeats. They are not
	// maps: a map would hand the merge's sort a different permutation
	// on every run, and with it different coverage to a fuzzer.
	//
	// accesses: in-window loads, as (guard PC, access PC) or, with kind
	// FindingKindV4, the (store PC, access PC) of a store-bypass window,
	// each with the address-taint bits its path saw — taintA set on any
	// observation means some path reaches the load with an
	// attacker-steered index (the Finding.AttackerIndex ranking axis).
	accesses []accessKey
	// transmits: (access PC, transmit PC) pairs observed in-window.
	transmits []sitePair
	// indirects: CALLR/JMPR sites whose target may be in flight when
	// the branch predicts — the Spectre-v2 injection surface — as
	// FindingKindV2 keys whose guard and access are the site, with the
	// target register's taint bits.
	indirects []accessKey

	// Working memory of transmitIgnoringFences.
	seen  map[fenceNode]bool
	nodes []fenceNode
}

// visitBudget caps total block visits; the lattice guarantees
// termination, but arbitrary fuzzed images deserve a hard stop too.
const visitBudget = 1 << 16

// run is the pass over g from roots, which must start blocks of g.
func (p *taintPass) run(g *CFG, roots []uint64, cfg Config) {
	p.g, p.cfg = g, cfg
	p.in = resized(p.in, len(g.Blocks))
	p.accesses, p.transmits, p.indirects = p.accesses[:0], p.transmits[:0], p.indirects[:0]
	entry := regState{live: true}
	for _, r := range cfg.TaintedRegs {
		if int(r) < isa.NumRegs {
			entry.taint[r] = taintA
		}
	}
	work := p.work[:0]
	for _, r := range roots {
		if k, ok := g.blockIndex(r); ok && p.in[k].join(entry) {
			work = append(work, k)
		}
	}
	visits := 0
	for len(work) > 0 && visits < visitBudget {
		visits++
		k := work[len(work)-1]
		work = work[:len(work)-1]
		b := &g.Blocks[k]
		out := p.flowBlock(b, p.in[k])
		// Propagate in the block's successor order: the access/guard
		// pairs recorded during pre-fixpoint visits depend on the visit
		// sequence, so the worklist must evolve identically on every run
		// for reports to be byte-stable.
		for _, succ := range b.Succs {
			if sk, _ := g.blockIndex(succ); p.in[sk].join(out) {
				work = append(work, sk)
			}
		}
	}
	p.work = work
}

// flowBlock runs the transfer function over one block from its joined
// entry state s and returns its exit state, which every successor
// receives. A terminal conditional branch opens a window when its
// flags are unresolved (the bounds check may mispredict).
func (p *taintPass) flowBlock(b *Block, s regState) regState {
	last := len(b.Instrs) - 1
	for i, in := range b.Instrs[:last] {
		p.step(&s, b.Start+uint64(i)*isa.InstrSize, in)
	}
	pc := b.Start + uint64(last)*isa.InstrSize
	if term := b.Instrs[last]; !term.Op.IsCondBranch() {
		p.step(&s, pc, term)
		return s
	}
	out := s
	p.tick(&out)
	if out.win == 0 && s.flagsInflight {
		out.win = p.cfg.SpecWindow
		out.guard = pc
	}
	return out
}

// tick consumes one instruction slot of the open windows, clearing
// transient taint when the last one expires.
func (p *taintPass) tick(s *regState) {
	closed := false
	if s.win > 0 {
		if s.win--; s.win == 0 {
			closed = true
		}
	}
	if s.ssbWin > 0 {
		if s.ssbWin--; s.ssbWin == 0 {
			closed = true
		}
	}
	if closed && s.win == 0 && s.ssbWin == 0 {
		s.clearS()
	}
}

// step is the transfer function for one non-terminal-branch instruction.
// The window slot is consumed after the instruction's effects: the final
// in-window instruction still sees (and can transmit) transient taint,
// matching the core, which executes exactly SpecWindow wrong-path
// instructions before the squash.
func (p *taintPass) step(s *regState, pc uint64, in isa.Instruction) {
	spec := s.win > 0 || s.ssbWin > 0
	rd := uint16(1) << in.Rd
	defer p.tick(s)
	switch op := in.Op; {
	case op == isa.MOVI || op == isa.RDTSC:
		s.taint[in.Rd] = 0
		s.site[in.Rd] = 0
		s.maskSeed &^= rd
		s.maskVal &^= rd
		s.setInflight(in.Rd, false)

	case op == isa.MOV:
		s.taint[in.Rd] = s.taint[in.Rs1]
		s.site[in.Rd] = s.site[in.Rs1]
		s.maskSeed = s.maskSeed&^rd | s.maskSeed>>in.Rs1&1<<in.Rd
		s.maskVal = s.maskVal&^rd | s.maskVal>>in.Rs1&1<<in.Rd
		s.setInflight(in.Rd, s.isInflight(in.Rs1))

	case op >= isa.ADD && op <= isa.SAR:
		switch {
		case op == isa.SUB && s.maskSeed&(1<<in.Rs2) != 0:
			// 0 - seed materializes the SLH all-ones/all-zero mask.
			s.taint[in.Rd] = 0
			s.site[in.Rd] = 0
			s.maskSeed &^= rd
			s.maskVal |= rd
		case op == isa.AND && (s.maskVal&(1<<in.Rs1) != 0 || s.maskVal&(1<<in.Rs2) != 0):
			// SLH: AND with the comparison-derived mask zeroes the value
			// on the mispredicted path — no longer attacker-steerable.
			s.taint[in.Rd] = (s.taint[in.Rs1] | s.taint[in.Rs2]) &^ taintA
			if s.taint[in.Rd]&taintS != 0 {
				s.site[in.Rd] = firstSite(s.site[in.Rs1], s.site[in.Rs2])
			} else {
				s.site[in.Rd] = 0
			}
			s.maskSeed &^= rd
			s.maskVal &^= rd
		default:
			s.taint[in.Rd] = s.taint[in.Rs1] | s.taint[in.Rs2]
			s.site[in.Rd] = firstSite(s.site[in.Rs1], s.site[in.Rs2])
			s.maskSeed &^= rd
			s.maskVal &^= rd
		}
		s.setInflight(in.Rd, s.isInflight(in.Rs1) || s.isInflight(in.Rs2))

	case op >= isa.ADDI && op <= isa.SHRI:
		switch {
		case op == isa.SHRI && in.Imm >= 57:
			// A near-full-width right shift leaves only the sign bits:
			// the SLH mask seed (0 or 1), not attacker-steerable data.
			s.taint[in.Rd] = 0
			s.site[in.Rd] = 0
			s.maskVal &^= rd
			s.maskSeed |= rd
		case op == isa.ANDI && in.Imm >= 0 && in.Imm < 0x1000 && (in.Imm+1)&in.Imm == 0:
			// Index masking: a small contiguous mask clamps the value
			// into a fixed in-bounds window, clearing attacker control.
			s.taint[in.Rd] = s.taint[in.Rs1] &^ taintA
			if s.taint[in.Rd]&taintS != 0 {
				s.site[in.Rd] = s.site[in.Rs1]
			} else {
				s.site[in.Rd] = 0
			}
			s.maskSeed &^= rd
			s.maskVal &^= rd
		default:
			s.taint[in.Rd] = s.taint[in.Rs1]
			s.site[in.Rd] = s.site[in.Rs1]
			s.maskSeed &^= rd
			s.maskVal &^= rd
		}
		s.setInflight(in.Rd, s.isInflight(in.Rs1))

	case op == isa.LOAD || op == isa.LOADB:
		at := s.taint[in.Rs1]
		if spec && at&taintS != 0 {
			p.transmits = append(p.transmits, sitePair{s.site[in.Rs1], pc})
		}
		if s.win > 0 && (at&taintA != 0 || p.cfg.UninitSecret) {
			p.accesses = append(p.accesses, accessKey{s.guard, pc, "", at})
		}
		if s.ssbWin > 0 && at&taintA != 0 {
			// Inside a store-bypass window, an attacker-addressed load
			// may transiently read the stale byte under the slot.
			p.accesses = append(p.accesses, accessKey{s.ssbStore, pc, FindingKindV4, at})
		}
		if spec && (at != 0 || p.cfg.UninitSecret) {
			// The loaded value is a transient secret; keep provenance
			// so a chained dereference reports the original access.
			// Under the uninit-secret policy an untainted in-window
			// address still yields a secret — unlabeled guest memory is
			// assumed secret — and this load is its own provenance.
			s.taint[in.Rd] = taintS
			if at&taintA != 0 || at == 0 {
				s.site[in.Rd] = pc
			} else {
				s.site[in.Rd] = s.site[in.Rs1]
			}
		} else {
			s.taint[in.Rd] = 0
			s.site[in.Rd] = 0
		}
		s.maskSeed &^= rd
		s.maskVal &^= rd
		s.setInflight(in.Rd, true)

	case op == isa.POP:
		s.taint[in.Rd] = 0
		s.site[in.Rd] = 0
		s.maskSeed &^= rd
		s.maskVal &^= rd
		s.setInflight(in.Rd, true)

	case op == isa.STORE || op == isa.STOREB:
		if s.taint[in.Rs1]&taintA != 0 && s.isInflight(in.Rs2) {
			// A sanitizing store over an attacker-addressed slot whose
			// data is still in flight: until it resolves, younger loads
			// may speculatively bypass it (Spectre-v4).
			s.ssbWin = p.cfg.SpecWindow
			s.ssbStore = pc
		}

	case op == isa.CALLR || op == isa.JMPR:
		if s.isInflight(in.Rs1) {
			// The branch may predict before its target resolves — the
			// BTB picks the transient continuation (Spectre-v2).
			p.indirects = append(p.indirects, accessKey{pc, pc, FindingKindV2, s.taint[in.Rs1]})
		}

	case op == isa.CMP:
		s.flagsInflight = s.isInflight(in.Rs1) || s.isInflight(in.Rs2)

	case op == isa.CMPI:
		s.flagsInflight = s.isInflight(in.Rs1)

	case op == isa.MFENCE || op == isa.LFENCE || op == isa.SYSCALL || op == isa.HALT:
		// Speculation barriers: close the windows, squash transient
		// values, and treat every pending load and store as drained.
		s.win = 0
		s.ssbWin = 0
		s.clearS()
		s.inflight = 0
		s.flagsInflight = false

	default:
		// NOP, PUSH, CLFLUSH, control transfers handled by the CFG
		// edges: no register effects in the abstract domain.
	}
}

func firstSite(a, b uint64) uint64 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// accessKey is one flagged access site as findings sorts them.
type accessKey struct {
	guard, access uint64
	kind          string
	taint         uint8
}

// mergeSites sorts keys by (guard, access, kind) and merges, in place,
// the keys that repeat a site, joining their taint bits.
func mergeSites(keys []accessKey) []accessKey {
	slices.SortFunc(keys, func(a, b accessKey) int {
		return cmp.Or(cmp.Compare(a.guard, b.guard), cmp.Compare(a.access, b.access), strings.Compare(a.kind, b.kind))
	})
	n := 0
	for _, k := range keys {
		if n > 0 && keys[n-1].guard == k.guard && keys[n-1].access == k.access && keys[n-1].kind == k.kind {
			keys[n-1].taint |= k.taint
			continue
		}
		keys[n] = k
		n++
	}
	return keys[:n]
}

// findings assembles classified findings from the collected site pairs,
// in the canonical order (AccessPC, Kind, GuardPC, TransmitPC) shared
// with the findings report layer so scans are worker-invariant. It
// reuses buf's storage for the result, and w for the witness searches;
// only the witnesses are newly allocated.
func (p *taintPass) findings(buf []Finding, w *walk) []Finding {
	slices.SortFunc(p.transmits, func(a, b sitePair) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	txs := slices.Compact(p.transmits)
	out := buf[:0]
	for _, k := range mergeSites(p.accesses) {
		atk := k.taint&taintA != 0
		// txs is sorted, so the access's transmits are one run of it.
		i, _ := slices.BinarySearchFunc(txs, k.access, func(t sitePair, access uint64) int {
			return cmp.Compare(t[0], access)
		})
		if i < len(txs) && txs[i][0] == k.access {
			for ; i < len(txs) && txs[i][0] == k.access; i++ {
				out = append(out, Finding{
					Kind: k.kind, GuardPC: k.guard, AccessPC: k.access, TransmitPC: txs[i][1], Verdict: VerdictLeak,
					AttackerIndex: atk, Witness: p.witness(k.guard, k.access, txs[i][1], w),
				})
			}
			continue
		}
		v := VerdictNoTransmit
		if p.transmitIgnoringFences(k.access) {
			v = VerdictMitigated
		}
		out = append(out, Finding{Kind: k.kind, GuardPC: k.guard, AccessPC: k.access, Verdict: v, AttackerIndex: atk})
	}
	// Every in-flight-target indirect branch is a v2 injection surface
	// in its own right: the leak body lives wherever the attacker
	// trains the BTB to point, so the site is reported as a leak with
	// no separate access/transmit.
	for _, k := range mergeSites(p.indirects) {
		out = append(out, Finding{
			Kind: k.kind, GuardPC: k.guard, AccessPC: k.access, Verdict: VerdictLeak,
			AttackerIndex: k.taint&taintA != 0,
		})
	}
	SortFindings(out)
	return out
}

// witness is a leak's route through the CFG, guard to access to
// transmit, or nil when either leg exceeds the window: each leg is the
// shortest within SpecWindow+2 instruction edges.
func (p *taintPass) witness(guard, access, tx uint64, w *walk) []uint64 {
	limit := p.cfg.SpecWindow + 2
	route := p.g.path(w.route[:0], guard, access, limit, w)
	if route == nil {
		return nil
	}
	w.route = route
	if route = p.g.path(route[:len(route)-1], access, tx, limit, w); route == nil {
		return nil
	}
	w.route = route
	return slices.Clone(route)
}

// SortFindings orders findings canonically by (AccessPC, Kind, GuardPC,
// TransmitPC) — the contract the v2 findings report relies on for
// byte-identical output at any worker count.
func SortFindings(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		if c := cmp.Compare(a.AccessPC, b.AccessPC); c != 0 {
			return c
		}
		if c := strings.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		if c := cmp.Compare(a.GuardPC, b.GuardPC); c != 0 {
			return c
		}
		return cmp.Compare(a.TransmitPC, b.TransmitPC)
	})
}

// fenceNode is one state of the fence-blind search: a PC and the
// registers carrying the transient secret there.
type fenceNode struct {
	pc   uint64
	regs uint16
}

// transmitIgnoringFences reports whether a load dependent on the value
// loaded at access is reachable when fences and the window budget are
// ignored — distinguishing "mitigated" (a transmit exists but a fence
// or window exhaustion kills it) from "no-transmit" (the value never
// becomes an address). Bounded forward dataflow over S-reg sets.
func (p *taintPass) transmitIgnoringFences(access uint64) bool {
	in, ok := p.g.InstrAt(access)
	if !ok {
		return false
	}
	if p.seen == nil {
		p.seen = map[fenceNode]bool{}
	}
	seen := p.seen
	clear(seen)
	start := fenceNode{access + isa.InstrSize, 1 << in.Rd}
	seen[start] = true
	work := append(p.nodes[:0], start)
	defer func() { p.nodes = work }()
	var one [1]uint64
	for steps := 0; len(work) > 0 && steps < visitBudget; steps++ {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		in, ok := p.g.InstrAt(n.pc)
		if !ok {
			continue
		}
		regs := n.regs
		switch op := in.Op; {
		case op == isa.LOAD || op == isa.LOADB:
			if regs&(1<<in.Rs1) != 0 {
				return true
			}
			regs &^= 1 << in.Rd
		case op == isa.MOVI || op == isa.RDTSC || op == isa.POP:
			regs &^= 1 << in.Rd
		case op == isa.MOV:
			if regs&(1<<in.Rs1) != 0 {
				regs |= 1 << in.Rd
			} else {
				regs &^= 1 << in.Rd
			}
		case op >= isa.ADD && op <= isa.SAR:
			if regs&(1<<in.Rs1) != 0 || regs&(1<<in.Rs2) != 0 {
				regs |= 1 << in.Rd
			} else {
				regs &^= 1 << in.Rd
			}
		case op >= isa.ADDI && op <= isa.SHRI:
			if regs&(1<<in.Rs1) != 0 {
				regs |= 1 << in.Rd
			} else {
				regs &^= 1 << in.Rd
			}
		}
		if regs == 0 {
			continue
		}
		for _, succ := range p.g.succPCs(n.pc, &one) {
			nn := fenceNode{succ, regs}
			if !seen[nn] {
				seen[nn] = true
				work = append(work, nn)
			}
		}
	}
	return false
}
