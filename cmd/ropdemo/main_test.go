package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cli"
)

// demo runs ropdemo with args and returns its output.
func demo(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestRunLeakBeatsBothDefenses: under ASLR and a canary, -leak performs
// the debug info leak, and the chain planned from what it leaked
// executes the attack binary. The leaked base is the image's actual
// (slid) base, and the leaked canary is the installed one.
func TestRunLeakBeatsBothDefenses(t *testing.T) {
	out := demo(t, "-defense", "both", "-leak")
	var base, end, data uint64
	if _, err := fmt.Sscanf(out, "host image: code %v..%v, data at %v", &base, &end, &data); err != nil {
		t.Fatalf("no image line: %v\n%s", err, out)
	}
	if base == 0x100000 {
		t.Fatalf("ASLR left the image at its preferred base:\n%s", out)
	}
	want := fmt.Sprintf("info leak (DBG diagnostics): load base %#x, canary %#x\n", base, uint64(canaryValue))
	if !strings.Contains(out, want) {
		t.Errorf("missing leak line %q:\n%s", want, out)
	}
	if !strings.Contains(out, "attack binary executed: true\n") {
		t.Errorf("attack did not execute:\n%s", out)
	}
}

// TestRunDefensesHoldWithoutLeak: without the leak, ASLR makes the
// chain jump to unmapped gadgets and the canary catches the overflow.
func TestRunDefensesHoldWithoutLeak(t *testing.T) {
	for _, tc := range []struct{ defense, want string }{
		{"aslr", "host crashed: "},
		{"canary", "host aborted: stack smashing detected"},
	} {
		out := demo(t, "-defense", tc.defense)
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "attack binary executed: false\n") {
			t.Errorf("-defense %s: want %q and no attack:\n%s", tc.defense, tc.want, out)
		}
		if strings.Contains(out, "info leak (DBG diagnostics)") {
			t.Errorf("-defense %s leaked without -leak:\n%s", tc.defense, out)
		}
	}
}

// TestRunBadFlag: a rejected command line is cli.ErrUsage (exit 2), and
// -h is flag.ErrHelp (exit 0 after the usage).
func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nosuchflag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
}

// TestRunBadDefense: a -defense value other than the four postures is a
// usage error (exit 2) that names them, not an undefended run.
func TestRunBadDefense(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-defense", "bogus"}, &out)
	if !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("-defense bogus = %v, want cli.ErrUsage (exit 2)", err)
	}
	if want := "none, canary, aslr or both"; !strings.Contains(err.Error(), want) {
		t.Errorf("-defense bogus error %q does not name the postures (%q)", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("-defense bogus ran:\n%s", out.String())
	}
}
