package analysis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Two secret bytes whose probe lines are disjoint from the lines the
// in-bounds training calls warm (arr holds 0..7). Running the program
// under each and comparing which probe line ends warm separates a real
// transient leak from incidental cache traffic.
var gadgetSecrets = [2]byte{0x47, 0xB3}

// ErrGadgetBudget reports a gadget run that did not halt within its
// instruction budget.
var ErrGadgetBudget = errors.New("analysis: gadget run exceeded its instruction budget")

// ErrProbeRingOverflow reports a confirmation run whose covert-probe
// events wrapped the probe ring: a verdict drawn from the events that
// survived could be wrong, so none is given.
var ErrProbeRingOverflow = errors.New("analysis: confirmation run overflowed the probe ring")

// gadgetMachine is the memory, core and probe recorder gadget programs
// run on. The zero value is ready: the first run builds the three parts
// and every later run resets them in place (mem.Memory.Reset,
// cpu.CPU.Reset, telemetry.Recorder.Reset), whose contract is that a
// reset part behaves exactly like a new one — so a run's outcome never
// depends on what ran before it, even a run that faulted, overflowed or
// hit its budget. A machine is not safe for concurrent use; the soaks and
// ScanCorpus give each sched worker its own through sched.MapLocal.
type gadgetMachine struct {
	mem mem.Memory
	cpu *cpu.CPU
	rec *telemetry.Recorder
	// evs holds the last confirmation run's events, read from rec.
	evs []telemetry.Event
}

// run loads p with secret planted at meta.SecretAddr and the attacker
// input in meta.TaintReg, and runs it under cfg until HALT. With probe
// set, the probe-only recorder watches the probe array (see confirm).
// The halted core and its recorder stay available for inspection until
// the next run.
func (g *gadgetMachine) run(p progen.Program, meta progen.GadgetMeta, cfg cpu.Config, maxInstr uint64, secret byte, probe bool) error {
	g.mem.Reset(p.MemSize)
	if err := p.LoadInto(&g.mem); err != nil {
		return err
	}
	if err := g.mem.LoadRaw(meta.SecretAddr, []byte{secret}); err != nil {
		return err
	}
	if g.cpu == nil {
		g.cpu = cpu.New(&g.mem, cfg)
	} else {
		g.cpu.Reset(&g.mem, cfg)
	}
	c := g.cpu
	if probe {
		if g.rec == nil {
			g.rec = probeOnlyRecorder()
		} else {
			g.rec.Reset()
		}
		c.AttachTelemetry(g.rec)
		c.SetProbeWindow(meta.ProbeBase, meta.ProbeBase+256*meta.ProbeStride)
	}
	c.PC = p.CodeBase
	c.Regs[isa.RegSP] = p.StackTop
	c.Regs[meta.TaintReg] = meta.TaintVal
	switch err := c.Run(maxInstr); {
	case errors.Is(err, cpu.ErrBudget):
		return fmt.Errorf("%w (%d instructions)", ErrGadgetBudget, maxInstr)
	case err != nil:
		return fmt.Errorf("analysis: gadget run faulted: %w", err)
	}
	if probe {
		if n := g.rec.Dropped(); n > 0 {
			return fmt.Errorf("%w (%d events, %d dropped)", ErrProbeRingOverflow, probeRingCapacity, n)
		}
	}
	return nil
}

// leaks is the ground-truth oracle for one generated gadget program:
// it runs the program on the real core (defenses as given by cfg) once
// per planted secret byte and reports whether the secret's probe cache
// line — and only that one — is warm at halt, both ways round. This is
// flush+reload's observation made by inspecting the cache model
// directly instead of timing loads.
func (g *gadgetMachine) leaks(p progen.Program, meta progen.GadgetMeta, cfg cpu.Config, maxInstr uint64) (bool, error) {
	leak := true
	for i, secret := range gadgetSecrets {
		other := gadgetSecrets[1-i]
		if err := g.run(p, meta, cfg, maxInstr, secret, false); err != nil {
			return false, err
		}
		warm := func(b byte) bool {
			return g.cpu.Caches.Cached(meta.ProbeBase + uint64(b)*meta.ProbeStride)
		}
		leak = leak && warm(secret) && !warm(other)
	}
	return leak, nil
}

// AnalyzeGadget runs the static analyzer over a generated gadget
// program with its taint convention (the meta's index register tainted
// at entry).
func AnalyzeGadget(p progen.Program, meta progen.GadgetMeta) *Report {
	return Analyze(p.Code, p.CodeBase, Config{TaintedRegs: []uint8{meta.TaintReg}}, p.CodeBase)
}

// Agreement is one static-versus-dynamic comparison outcome.
type Agreement struct {
	Seed        int64
	Kind        progen.GadgetKind
	Expect      bool // ground-truth label
	StaticLeak  bool
	DynamicLeak bool
}

// Agrees reports whether all three verdicts coincide.
func (a Agreement) Agrees() bool {
	return a.StaticLeak == a.Expect && a.DynamicLeak == a.Expect
}

func (a Agreement) String() string {
	return fmt.Sprintf("seed=%d kind=%s expect=%v static=%v dynamic=%v",
		a.Seed, a.Kind, a.Expect, a.StaticLeak, a.DynamicLeak)
}

// SoakAgreement fans n agreement checks out over the sched pool,
// cycling through every gadget kind and deriving one program seed per
// kind-cycle from the base seed — the engine behind speclint's -progen
// soak, TestStaticDynamicAgreement and, with cfg.ForceWrongPath set,
// TestConfirmAgreement. The context carries the caller's telemetry sinks
// and progress pool (if any) into the pool workers. Each worker runs its
// checks on one reused gadget machine.
func SoakAgreement(ctx context.Context, seed int64, n, workers int, cfg cpu.Config, maxInstr uint64) ([]Agreement, error) {
	kinds := progen.GadgetKinds()
	return sched.MapLocal(ctx, workers, n, func(_ context.Context, g *gadgetMachine, i int) (Agreement, error) {
		s := sched.DeriveSeed(seed, uint64(i/len(kinds)))
		return g.checkAgreement(s, kinds[i%len(kinds)], cfg, maxInstr)
	})
}

// checkAgreement generates the gadget program for (seed, kind), runs
// both the analyzer and the simulator, and returns the comparison — the
// step SoakAgreement runs per program. The dynamic judge is the
// trained-predictor cache oracle (leaks), or with cfg.ForceWrongPath the
// SpecFuzz-style confirmation (confirm): the two observe different
// things, cache state at halt against covert-probe events, and differ
// under a defense like SquashCacheEffects that undoes transient fills.
func (g *gadgetMachine) checkAgreement(seed int64, kind progen.GadgetKind, cfg cpu.Config, maxInstr uint64) (Agreement, error) {
	p, meta := progen.GenerateGadget(seed, kind)
	rep := AnalyzeGadget(p, meta)
	var dyn bool
	var err error
	if cfg.ForceWrongPath {
		var w *ConfirmWitness
		w, err = g.confirm(p, meta, cfg, maxInstr)
		dyn = w != nil
	} else {
		dyn, err = g.leaks(p, meta, cfg, maxInstr)
	}
	if err != nil {
		return Agreement{}, fmt.Errorf("seed %d kind %s: %w", seed, kind, err)
	}
	return Agreement{
		Seed:        seed,
		Kind:        kind,
		Expect:      kind.ExpectLeak(),
		StaticLeak:  len(rep.Leaks()) > 0,
		DynamicLeak: dyn,
	}, nil
}
