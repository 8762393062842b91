// Package defense evaluates the CR-Spectre attack against the defense
// landscape the paper discusses: the memory-safety mitigations of §I
// (DEP, stack canaries, ASLR — each with the published bypasses), the
// speculation defenses of §I (InvisiSpec-style fill rollback, full
// fencing), and the §IV countermeasures (privileged CLFLUSH/MFENCE).
// Evaluate runs the full injection + leak chain under one Posture and
// reports exactly where — if anywhere — it broke.
package defense

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/gadget"
	"repro/internal/mibench"
	"repro/internal/perturb"
	"repro/internal/rop"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// Posture is one defensive configuration of the platform.
type Posture struct {
	// DEP marks the stack non-executable (on by default in the paper's
	// setting; turning it off re-enables classic shellcode).
	DEP bool
	// Canary guards the vulnerable function's return address.
	Canary bool
	// ASLR randomises image load addresses.
	ASLR bool
	// PrivilegedFlush faults user-mode CLFLUSH/MFENCE (§IV's first
	// countermeasure) — it breaks both the perturbation generator and
	// the flush+reload receiver.
	PrivilegedFlush bool
	// InvisiSpec rolls back speculative cache fills at squash (ref [18]).
	InvisiSpec bool
	// CSFencing fences conditional-branch speculation only — the
	// Context-Sensitive Fencing of ref [19] as deployed against v1-style
	// transients. Return/indirect speculation stays live.
	CSFencing bool
	// NoSpeculation disables wrong-path execution entirely.
	NoSpeculation bool
	// Harden is the software mitigation of Bălucea & Irofti compiled
	// into the victim code (the attack binary's own gadget routines —
	// the threat model's "defended victim"): index masking, SLH,
	// retpoline or fence insertion. The transforms are alternatives, not
	// layers, so a posture carries at most one.
	Harden spectre.Hardening
	// SSBD disables speculative store bypass in the core (the
	// chicken-bit analogue; no recompile needed).
	SSBD bool
}

// Attacker is the adversary's capability set. The paper's §I cites
// published ASLR and canary bypasses ([14]-[17]); here they are
// implemented concretely: the host's verbose "DBG" diagnostics path
// echoes two stale stack words, from which the attacker derives the
// load base and the canary value (rop.LeakViaDebug).
type Attacker struct {
	// LeakCanary: the attacker uses the debug leak's canary word.
	LeakCanary bool
	// LeakLayout: the attacker uses the debug leak's return address to
	// recover the randomised load base.
	LeakLayout bool
	// Perturb injects Algorithm 2's perturbation routine.
	Perturb bool
	// Variant selects the speculation primitive (zero value =
	// v1-bounds-check). An adaptive attacker switches variants when a
	// mitigation covers only one prediction structure.
	Variant spectre.Variant
}

// Stage identifies how far the attack chain progressed.
type Stage string

// Attack progress stages, in order.
const (
	StagePayload  Stage = "payload-build" // could not even build the payload
	StageInject   Stage = "injection"     // overflow ran but control was not hijacked
	StageLeak     Stage = "leak"          // attack binary ran but recovered nothing
	StageComplete Stage = "complete"      // secret fully recovered
)

// Outcome reports one Evaluate run.
type Outcome struct {
	// Success is true when the full secret leaked.
	Success bool
	// Stage is the furthest stage reached.
	Stage Stage
	// Injected reports whether the attack binary was exec'd.
	Injected bool
	// Aborted reports a canary-triggered abort.
	Aborted bool
	// Faulted reports a machine fault (DEP violation, privileged
	// instruction, bad addresses under ASLR...).
	Faulted bool
	// Recovered is what the covert channel produced.
	Recovered string
	// Detail is a one-line explanation.
	Detail string
}

// Secret is the value planted in the host for Evaluate runs.
const Secret = "S3CR3T_K3Y"

// Evaluate runs the attack chain under the posture with the given
// attacker capabilities and reports the outcome. Deterministic under
// seed. Its callers (the defense and variant matrices, the daemon's
// attack repetitions) hold no machine to pass in, so it runs on one from
// the process's machine pool (vm.Get); an Outcome holds only values and
// copied strings, so nothing returned references that machine.
func Evaluate(p Posture, atk Attacker, seed int64) (Outcome, error) {
	m := vm.Get()
	o, err := evaluate(m, p, atk, seed)
	vm.Put(m)
	return o, err
}

// evaluate is Evaluate on m, which it resets to the state vm.New builds.
func evaluate(m *vm.Machine, p Posture, atk Attacker, seed int64) (Outcome, error) {
	host := mibench.Math(150)
	hostMod, err := host.HostModule(rop.HostOptions{Canary: p.Canary, Secret: Secret})
	if err != nil {
		return Outcome{}, err
	}

	cfg := vm.DefaultConfig()
	cfg.ASLR = p.ASLR
	cfg.ASLRSeed = seed
	cfg.StackExecutable = !p.DEP
	cfg.CPU.PrivilegedFlush = p.PrivilegedFlush
	cfg.CPU.SquashCacheEffects = p.InvisiSpec
	cfg.CPU.FenceConditional = p.CSFencing
	cfg.CPU.SpeculationEnabled = !p.NoSpeculation
	cfg.CPU.DisableStoreBypass = p.SSBD
	m.Reset(cfg)
	m.Register("host", hostMod, rop.HostBase)
	hostImg, err := m.Load("host")
	if err != nil {
		return Outcome{}, err
	}

	// Canary installation (loader-side).
	canaryValue := uint64(0x5ca1ab1e0dd5) ^ uint64(seed)*2654435761
	if p.Canary {
		if err := m.Mem.Write64(hostImg.MustSymbol("__canary"), canaryValue); err != nil {
			return Outcome{}, err
		}
	}

	// What the attacker knows: the preferred base, or what a leak echoes.
	tgt, err := rop.Recon(m, "host", hostMod, hostImg, atk.LeakLayout, atk.LeakCanary, 100_000_000)
	if err != nil {
		return Outcome{Stage: StagePayload, Detail: err.Error()}, nil
	}

	// The attack binary targets the host secret's attacker-known address.
	attCfg := spectre.Config{
		Variant:    atk.Variant,
		TargetAddr: tgt.Image.MustSymbol("__secret"),
		SecretLen:  len(Secret),
		Harden:     p.Harden,
	}
	if atk.Perturb {
		attCfg.PerturbAsm = perturb.Paper().Asm()
	}
	attMod, err := attCfg.Module()
	if err != nil {
		return Outcome{}, err
	}
	m.Register("attack", attMod, 0x600000)

	// Payload: the attacker prefers shellcode when the stack is
	// executable (cheaper, no gadgets needed), else the ROP chain.
	var payload []byte
	if !p.DEP {
		payload, _, err = rop.BuildShellcodePayload("attack", rop.ShellcodeBufAddr(m.StackTop(), p.Canary), tgt.Canary)
	} else {
		var plan *rop.Plan
		plan, err = rop.PlanInjection(gadget.ScanAndCatalog(tgt.Image, 3), "attack", tgt.Canary)
		if plan != nil {
			payload = plan.Payload
		}
	}
	if err != nil {
		return Outcome{Stage: StagePayload, Detail: err.Error()}, nil
	}

	out := Outcome{Stage: StageInject}
	runErr := m.Exec("host", payload, 200_000_000)
	out.Recovered = m.Output.String()
	if len(out.Recovered) > len(Secret) {
		out.Recovered = out.Recovered[:len(Secret)]
	}
	if slices.Contains(m.ExecLog, "attack") {
		out.Injected = true
		out.Stage = StageLeak
	}
	out.Aborted, out.Faulted = m.Aborted, runErr != nil
	if out.Recovered == Secret {
		out.Stage = StageComplete
		out.Success = true
	}

	switch {
	case out.Success:
		out.Detail = "secret fully recovered"
	case out.Aborted:
		out.Detail = "stack-smashing detected by the canary"
	case out.Faulted && !out.Injected:
		var f *cpu.Fault
		if errors.As(runErr, &f) {
			out.Detail = fmt.Sprintf("host faulted before injection: %v", runErr)
		} else {
			out.Detail = fmt.Sprintf("host crashed: %v", runErr)
		}
	case out.Faulted:
		out.Detail = fmt.Sprintf("attack binary faulted: %v", runErr)
	case out.Injected:
		out.Detail = "injected but the covert channel recovered nothing"
	default:
		out.Detail = "control flow was not hijacked"
	}
	return out, nil
}

// MatrixRow pairs a labelled posture/attacker combination with its
// outcome, for the defense-matrix report.
type MatrixRow struct {
	Name     string
	Posture  Posture
	Attacker Attacker
	Outcome  Outcome
}

// Matrix evaluates the canonical set of scenarios the paper walks
// through in §I and §IV.
func Matrix(seed int64) ([]MatrixRow, error) {
	cases := []struct {
		name string
		p    Posture
		a    Attacker
	}{
		{"no defenses (executable stack)", Posture{}, Attacker{}},
		{"DEP only", Posture{DEP: true}, Attacker{}},
		{"DEP + canary", Posture{DEP: true, Canary: true}, Attacker{}},
		{"DEP + canary, leaked canary", Posture{DEP: true, Canary: true}, Attacker{LeakCanary: true}},
		{"DEP + ASLR", Posture{DEP: true, ASLR: true}, Attacker{}},
		{"DEP + ASLR, leaked layout", Posture{DEP: true, ASLR: true}, Attacker{LeakLayout: true}},
		{"all memory defenses, both leaks", Posture{DEP: true, Canary: true, ASLR: true}, Attacker{LeakCanary: true, LeakLayout: true}},
		{"context-sensitive fencing [19]", Posture{DEP: true, CSFencing: true}, Attacker{}},
		{"context-sensitive fencing, RSB variant", Posture{DEP: true, CSFencing: true}, Attacker{Variant: spectre.VRSB}},
		{"privileged clflush (§IV)", Posture{DEP: true, PrivilegedFlush: true}, Attacker{}},
		{"InvisiSpec", Posture{DEP: true, InvisiSpec: true}, Attacker{}},
		{"speculation disabled", Posture{DEP: true, NoSpeculation: true}, Attacker{}},
		// The software-mitigation postures, each probed twice: once by
		// the variant it seals and once by the variant a defense-aware
		// attacker re-targets to slip past it.
		{"index masking", MitigationIndexMask.Posture(), Attacker{}},
		{"index masking, v2 variant", MitigationIndexMask.Posture(), Attacker{Variant: spectre.V2CrossTrain}},
		{"SLH", MitigationSLH.Posture(), Attacker{}},
		{"SLH, v4 variant", MitigationSLH.Posture(), Attacker{Variant: spectre.V4StoreBypass}},
		{"retpoline, v2 variant", MitigationRetpoline.Posture(), Attacker{Variant: spectre.V2CrossTrain}},
		{"retpoline, v1 variant", MitigationRetpoline.Posture(), Attacker{}},
		{"fence insertion", MitigationFence.Posture(), Attacker{}},
		{"fence insertion, v2 variant", MitigationFence.Posture(), Attacker{Variant: spectre.V2CrossTrain}},
		{"SSBD, v4 variant", MitigationSSBD.Posture(), Attacker{Variant: spectre.V4StoreBypass}},
		{"SSBD, v1 variant", MitigationSSBD.Posture(), Attacker{}},
	}
	var rows []MatrixRow
	for _, c := range cases {
		o, err := Evaluate(c.p, c.a, seed)
		if err != nil {
			return nil, fmt.Errorf("defense: %s: %w", c.name, err)
		}
		rows = append(rows, MatrixRow{Name: c.name, Posture: c.p, Attacker: c.a, Outcome: o})
	}
	return rows, nil
}
