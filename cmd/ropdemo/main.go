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
	"os"

	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/vm"
)

func main() {
	var (
		defense = flag.String("defense", "none", "defense configuration: none, canary, aslr, both")
		leak    = flag.Bool("leak", false, "give the attacker an info-leak primitive (bypasses canary/ASLR)")
		gadgets = flag.Bool("gadgets", false, "print the discovered gadget catalogue")
		seed    = flag.Int64("seed", 42, "ASLR seed")
	)
	flag.Parse()

	canary := *defense == "canary" || *defense == "both"
	aslr := *defense == "aslr" || *defense == "both"

	host := mibench.Math(100)
	hostMod, err := host.HostModule(rop.HostOptions{Canary: canary})
	if err != nil {
		fatal(err)
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
	m.Register("host", hostMod, 0x100000)
	m.Register("attack", attack, 0x400000)

	img, err := m.Load("host")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("host image: code %#x..%#x, data at %#x (ASLR %v)\n",
		img.Base, img.Base+uint64(len(img.Code)), img.DataBase, aslr)

	var canaryVal *uint64
	if canary {
		addr := img.MustSymbol("__canary")
		v := uint64(0x00c0ffee1550c001)
		if err := m.Mem.Write64(addr, v); err != nil {
			fatal(err)
		}
		fmt.Printf("stack canary installed at %#x\n", addr)
		if *leak {
			canaryVal = &v
			fmt.Println("attacker leaked the canary value (info-leak primitive)")
		}
	}
	// What the attacker knows: with -leak, the image as loaded; without
	// it, only the preferred base, which ASLR moves the image away from.
	planImg := img
	if aslr && !*leak {
		if planImg, err = hostMod.Link(0x100000); err != nil {
			fatal(err)
		}
		fmt.Printf("no info leak: attacker plans against the preferred base %#x\n", planImg.Base)
	}

	cat := gadget.ScanAndCatalog(planImg, 3)
	fmt.Printf("gadget scan: %d gadgets end in ret\n", len(cat.All()))
	if *gadgets {
		for _, g := range cat.All() {
			fmt.Println("  ", g)
		}
	}

	plan, err := rop.PlanInjection(cat, "attack", canaryVal)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nROP chain:")
	fmt.Println(plan.Chain.Describe())
	fmt.Printf("\npayload: %d bytes (name@%d, filler %d, canary@%d, chain@%d)\n",
		len(plan.Payload), plan.Layout.NameOffset, plan.Layout.FillerLen,
		plan.Layout.CanaryOffset, plan.Layout.ChainOffset)

	err = m.Exec("host", plan.Payload, 10_000_000)
	fmt.Println("\n--- run ---")
	switch {
	case err != nil:
		fmt.Printf("host crashed: %v\n", err)
	case m.Aborted:
		fmt.Printf("host aborted: stack smashing detected (code %#x)\n", m.ExitCode)
	default:
		fmt.Printf("output: %q\n", m.Output.String())
	}
	hijacked := false
	for _, e := range m.ExecLog {
		if e == "attack" {
			hijacked = true
		}
	}
	fmt.Printf("attack binary executed: %t\n", hijacked)
	fmt.Printf("return mispredictions (RSB signature of the chain): %d\n",
		m.CPU.BP.Stats.ReturnMispred)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ropdemo:", err)
	os.Exit(1)
}
