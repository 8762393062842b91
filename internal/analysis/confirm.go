package analysis

import (
	"repro/internal/cpu"
	"repro/internal/progen"
	"repro/internal/telemetry"
)

// SpecFuzz-style dynamic confirmation. The static pass assumes the
// worst-case predictor; this harness makes that assumption true on the
// real core without training it: cpu.Config.ForceWrongPath executes the
// wrong side of every conditional branch whose flags are still in
// flight, so both directions of every unresolved branch run
// speculatively in a single pass. The telemetry ring — with every kind
// but covert_probe excluded — then acts as the transmission oracle: a
// flagged leak is *confirmed* when the forced run emits a covert-probe
// event on the cache line selected by the planted secret, and only on
// that line, for both planted secrets. A static "leak" the forced core
// cannot reproduce stays a plain leak; the confirm upgrade never
// invents findings, it only strengthens verdicts with a witness.

// ConfirmWitness is the concrete reproduction attached to a confirmed
// finding: the attacker input that steered the index, the planted
// secret, and the covert-probe event that betrayed it.
type ConfirmWitness struct {
	// Input is the attacker-controlled register value at entry.
	Input uint64 `json:"input"`
	// Secret is the planted secret byte the probe line encodes.
	Secret byte `json:"secret"`
	// ProbeAddr is the probe-array line the transient load touched
	// (ProbeBase + Secret*ProbeStride).
	ProbeAddr uint64 `json:"probe_addr"`
	// TransmitPC is the PC of the transmitting load.
	TransmitPC uint64 `json:"transmit_pc"`
	// Cycle is the core cycle of the probe event.
	Cycle uint64 `json:"cycle"`
}

// probeRingCapacity bounds the confirmation ring. A forced run over the
// generated gadget corpus emits at most 16 covert-probe events with
// either secret; a run that wraps the ring fails with
// ErrProbeRingOverflow rather than be judged on partial evidence.
const probeRingCapacity = 1024

// probeOnlyRecorder builds a recorder that stores covert-probe events
// and merely counts everything else, so a long forced run cannot wrap
// the oracle out of the ring.
func probeOnlyRecorder() *telemetry.Recorder {
	rec := telemetry.NewRecorder(probeRingCapacity)
	var others []telemetry.Kind
	for k := telemetry.Kind(0); k < telemetry.NumKinds; k++ {
		if k != telemetry.KindCovertProbe {
			others = append(others, k)
		}
	}
	rec.Exclude(others...)
	return rec
}

// ConfirmGadget runs the speculation-exposing confirmation on one
// generated gadget program. It returns a non-nil witness iff, for each
// of the two planted secrets, the forced run emitted a covert-probe
// event on that secret's probe line and never on the other's — the
// same two-secret disambiguation the ground-truth oracle uses, but
// observed through the telemetry ring, which survives squashes (the
// transient fill is the leak) and carries the transmitting PC.
func ConfirmGadget(p progen.Program, meta progen.GadgetMeta, cfg cpu.Config, maxInstr uint64) (*ConfirmWitness, error) {
	return new(gadgetMachine).confirm(p, meta, cfg, maxInstr)
}

func (g *gadgetMachine) confirm(p progen.Program, meta progen.GadgetMeta, cfg cpu.Config, maxInstr uint64) (*ConfirmWitness, error) {
	cfg.ForceWrongPath = true
	var witness *ConfirmWitness
	for i, secret := range gadgetSecrets {
		if err := g.run(p, meta, cfg, maxInstr, secret, true); err != nil {
			return nil, err
		}
		w := g.probeWitness(meta, secret, gadgetSecrets[1-i])
		if w == nil {
			return nil, nil
		}
		if witness == nil {
			witness = w
		}
	}
	return witness, nil
}

// probeWitness judges the last forced run from its covert-probe events,
// read into the machine's event buffer: the witness of the first probe
// of secret's line, or nil when other's line was probed too or secret's
// never was.
func (g *gadgetMachine) probeWitness(meta progen.GadgetMeta, secret, other byte) *ConfirmWitness {
	selfLine := meta.ProbeBase + uint64(secret)*meta.ProbeStride
	otherLine := meta.ProbeBase + uint64(other)*meta.ProbeStride
	var witness *ConfirmWitness
	g.evs = g.rec.AppendEvents(g.evs[:0])
	for _, ev := range g.evs {
		if ev.Kind != telemetry.KindCovertProbe {
			continue
		}
		if ev.Addr == otherLine {
			return nil // the wrong line warmed: not secret-selected
		}
		if ev.Addr == selfLine && witness == nil {
			witness = &ConfirmWitness{
				Input:      meta.TaintVal,
				Secret:     secret,
				ProbeAddr:  ev.Addr,
				TransmitPC: ev.PC,
				Cycle:      ev.Cycle,
			}
		}
	}
	return witness
}

// ConfirmFindings applies a successful confirmation to a report's
// findings: every static leak is upgraded to VerdictConfirmed with the
// witness attached (scores are recomputed by the caller's ranking).
// With a nil witness it is a no-op — unconfirmed leaks keep their
// static verdict.
func ConfirmFindings(fs []RankedFinding, w *ConfirmWitness) {
	if w == nil {
		return
	}
	for i := range fs {
		if fs[i].Verdict != VerdictLeak {
			continue
		}
		fs[i].Verdict = VerdictConfirmed
		fs[i].Repro = w
		fs[i].Score = ScoreFinding(fs[i].Finding, fs[i].Span, fs[i].Depth)
	}
}
