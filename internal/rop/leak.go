package rop

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/vm"
)

// HostBase is the preferred load base of a host binary: where callers
// register it, and where an attacker without a layout leak believes it
// is loaded (ASLR slides it away).
const HostBase = 0x100000

// DebugRetOffset is where the leaked stale return address points inside
// the host image: the instruction after `_start`'s call, i.e. base + one
// instruction slot. Attackers subtract it to recover the (possibly
// ASLR-slid) load base.
const DebugRetOffset = 16

// DebugLeak is what the host's verbose diagnostics path reveals.
type DebugLeak struct {
	// Base is the host image's recovered load base.
	Base uint64
	// Canary is the stale stack canary word (junk on non-canary builds).
	Canary uint64
}

// LeakViaDebug exercises the host's "DBG" diagnostics input and parses
// the two leaked stack words — the concrete info-leak primitive behind
// the paper's §I citations of ASLR and canary bypasses ([14]-[17]).
// The machine's output buffer is consumed and reset.
func LeakViaDebug(m *vm.Machine, hostName string, budget uint64) (DebugLeak, error) {
	m.Output.Reset()
	if err := m.Exec(hostName, []byte("DBG"), budget); err != nil {
		return DebugLeak{}, fmt.Errorf("rop: debug-leak run: %w", err)
	}
	lines := strings.Split(m.Output.String(), "\n")
	m.Output.Reset()
	if len(lines) < 2 {
		return DebugLeak{}, fmt.Errorf("rop: debug path produced no leak")
	}
	ret, err := strconv.ParseUint(strings.TrimSpace(lines[0]), 10, 64)
	if err != nil {
		return DebugLeak{}, fmt.Errorf("rop: parsing leaked return address: %w", err)
	}
	canary, err := strconv.ParseUint(strings.TrimSpace(lines[1]), 10, 64)
	if err != nil {
		return DebugLeak{}, fmt.Errorf("rop: parsing leaked canary: %w", err)
	}
	if ret < DebugRetOffset {
		return DebugLeak{}, fmt.Errorf("rop: implausible leaked return address %#x", ret)
	}
	return DebugLeak{Base: ret - DebugRetOffset, Canary: canary}, nil
}

// Target is what an attacker plans an injection against: the host
// image linked where they believe it is loaded, the canary word if they
// leaked it, and what the host's diagnostics echoed if a leak ran.
type Target struct {
	Image  *isa.Image
	Canary *uint64
	Leak   *DebugLeak
}

// Recon returns what an attacker knows of host, loaded on m as img from
// mod. Without leaks they know only HostBase and no canary. With
// leakLayout or leakCanary they run LeakViaDebug and take the load
// base, the canary or both from what it echoes: the bypasses are
// executed, not assumed.
func Recon(m *vm.Machine, host string, mod *isa.Module, img *isa.Image, leakLayout, leakCanary bool, budget uint64) (Target, error) {
	t, base := Target{Image: img}, uint64(HostBase)
	if leakLayout || leakCanary {
		leak, err := LeakViaDebug(m, host, budget)
		if err != nil {
			return Target{}, fmt.Errorf("info leak failed: %w", err)
		}
		t.Leak = &leak
		if leakLayout {
			base = leak.Base
		}
		if leakCanary {
			t.Canary = &leak.Canary
		}
	}
	var err error
	if img.Base != base {
		t.Image, err = mod.Link(base)
	}
	return t, err
}
