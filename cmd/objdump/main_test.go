package main

import (
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// objdump runs the tool with args and returns its output.
func objdump(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestRunGadgets: -gadgets prints the sections, the symbol table and
// the attacker's gadget catalogue instead of the disassembly.
func TestRunGadgets(t *testing.T) {
	out := objdump(t, "-host", "math", "-gadgets")
	for _, want := range []string{"sections:\n  .text  0x100000", "symbols:\n", "vulnerable_function", "\ngadgets ("} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q:\n%s", want, out)
		}
	}
	_, list, _ := strings.Cut(out, "\ngadgets (")
	if n := strings.Count(list, "ret"); n == 0 {
		t.Errorf("gadget catalogue lists no ret-terminated gadgets:\n%s", list)
	}
	if strings.Contains(out, "disassembly:") {
		t.Errorf("-gadgets also printed the disassembly")
	}
}

// TestRunSaveLoad: an image written with -save dumps the same with
// -load as it did when it was built.
func TestRunSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sha_1.simx")
	saved := objdump(t, "-host", "sha_1", "-save", path)
	built, ok := strings.CutPrefix(saved, "wrote "+path+"\n")
	if !ok {
		t.Fatalf("-save did not announce %s:\n%s", path, saved)
	}
	if loaded := objdump(t, "-load", path); loaded != built {
		t.Errorf("-load dump differs from the built image's:\n%s\nwant:\n%s", loaded, built)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("bad flag = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if err := run([]string{"-attack", "-variant", "nope"}, &out); err == nil || errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown variant = %v, want a plain error (exit 1)", err)
	}
}
