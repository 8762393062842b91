// Command ropdemo walks through the code-reuse injection mechanics in
// isolation (the paper's §II-C): it assembles a vulnerable host, scans
// it for gadgets, prints the chain and payload layout, and runs the
// overflow under the selected defenses (stack canary, ASLR, both, or
// none), showing which configurations the attack defeats and how.
//
// Usage:
//
//	ropdemo [-defense none|canary|aslr|both] [-leak] [-gadgets]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/cli"
	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/vm"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

const (
	// budget bounds each host run: the leak and the overflow.
	budget = 10_000_000
	// canaryValue is the word the loader installs under -defense
	// canary or both.
	canaryValue = 0x00c0ffee1550c001
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ropdemo", flag.ContinueOnError)
	defense := fs.String("defense", "", "defense `posture`: none (default), canary, aslr or both")
	leak := fs.Bool("leak", false, "run the host's debug info leak and plan from the leaked base and canary (bypasses canary/ASLR)")
	gadgets := fs.Bool("gadgets", false, "print the discovered gadget catalogue")
	seed := fs.Int64("seed", 42, "ASLR seed")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if !slices.Contains([]string{"", "none", "canary", "aslr", "both"}, *defense) {
		return fmt.Errorf("%w: unknown -defense %q (want none, canary, aslr or both)", cli.ErrUsage, *defense)
	}

	canary := *defense == "canary" || *defense == "both"
	aslr := *defense == "aslr" || *defense == "both"

	host := mibench.Math(100)
	hostMod, err := host.HostModule(rop.HostOptions{Canary: canary})
	if err != nil {
		return err
	}
	attack := isa.MustAssemble(`
		movi r0, 1
		movi r1, '!'
		syscall
		movi r0, 0
		movi r1, 0
		syscall
	`)

	cfg := vm.DefaultConfig()
	cfg.ASLR = aslr
	cfg.ASLRSeed = *seed
	m := vm.New(cfg)
	m.Register("host", hostMod, rop.HostBase)
	m.Register("attack", attack, 0x400000)

	img, err := m.Load("host")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host image: code %#x..%#x, data at %#x (ASLR %v)\n",
		img.Base, img.Base+uint64(len(img.Code)), img.DataBase, aslr)

	if canary {
		addr := img.MustSymbol("__canary")
		if err := m.Mem.Write64(addr, canaryValue); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stack canary installed at %#x\n", addr)
	}
	// What the attacker knows: the preferred base and no canary, or,
	// under -leak, what the host's diagnostics echo.
	tgt, err := rop.Recon(m, "host", hostMod, img, *leak, *leak && canary, budget)
	if err != nil {
		return err
	}
	switch {
	case tgt.Leak != nil:
		fmt.Fprintf(stdout, "info leak (DBG diagnostics): load base %#x, canary %#x\n", tgt.Leak.Base, tgt.Leak.Canary)
	case tgt.Image != img:
		fmt.Fprintf(stdout, "no info leak: attacker plans against the preferred base %#x\n", tgt.Image.Base)
	}

	cat := gadget.ScanAndCatalog(tgt.Image, 3)
	fmt.Fprintf(stdout, "gadget scan: %d gadgets end in ret\n", len(cat.All()))
	if *gadgets {
		for _, g := range cat.All() {
			fmt.Fprintln(stdout, "  ", g)
		}
	}

	plan, err := rop.PlanInjection(cat, "attack", tgt.Canary)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nROP chain:")
	fmt.Fprintln(stdout, plan.Chain.Describe())
	fmt.Fprintf(stdout, "\npayload: %d bytes (name@%d, filler %d, canary@%d, chain@%d)\n",
		len(plan.Payload), plan.Layout.NameOffset, plan.Layout.FillerLen,
		plan.Layout.CanaryOffset, plan.Layout.ChainOffset)

	err = m.Exec("host", plan.Payload, budget)
	fmt.Fprintln(stdout, "\n--- run ---")
	switch {
	case err != nil:
		fmt.Fprintf(stdout, "host crashed: %v\n", err)
	case m.Aborted:
		fmt.Fprintf(stdout, "host aborted: stack smashing detected (code %#x)\n", m.ExitCode)
	default:
		fmt.Fprintf(stdout, "output: %q\n", m.Output.String())
	}
	fmt.Fprintf(stdout, "attack binary executed: %t\n", slices.Contains(m.ExecLog, "attack"))
	fmt.Fprintf(stdout, "return mispredictions (RSB signature of the chain): %d\n",
		m.CPU.BP.Stats.ReturnMispred)
	return nil
}
