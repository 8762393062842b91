// Command objdump inspects the binaries the platform runs: it assembles
// a MiBench host (or the generated attack binary), links it, and prints
// sections, the symbol table, the disassembly, and — with -gadgets — the
// ROP-gadget view an attacker extracts from the same bytes.
//
// Usage:
//
//	objdump -host sha_1                  # a host binary
//	objdump -attack -variant rsb         # a generated attack binary
//	objdump -host math -gadgets          # attacker's view
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/spectre"
)

func main() {
	var (
		hostName = flag.String("host", "math", "workload to dump")
		attack   = flag.Bool("attack", false, "dump a generated attack binary instead")
		variant  = flag.String("variant", "v1-bounds-check", "attack variant (with -attack)")
		gadgets  = flag.Bool("gadgets", false, "print the gadget catalogue instead of full disassembly")
		base     = flag.Uint64("base", 0x100000, "link base address")
		save     = flag.String("save", "", "also write the linked image as a SIMX object file")
		loadObj  = flag.String("load", "", "dump a SIMX object file instead of building one")
	)
	flag.Parse()

	if *loadObj != "" {
		f, err := os.Open(*loadObj)
		if err != nil {
			fatal(err)
		}
		img, err := isa.ReadImage(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		dump(img, *gadgets)
		return
	}

	var mod *isa.Module
	var err error
	switch {
	case *attack:
		var v spectre.Variant
		found := false
		for _, cand := range spectre.Variants() {
			if cand.String() == *variant {
				v, found = cand, true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown variant %q", *variant))
		}
		mod, err = spectre.Config{Variant: v, TargetAddr: 0x200000, SecretLen: 8}.Module()
	default:
		var w mibench.Workload
		w, err = mibench.ByName(*hostName)
		if err == nil {
			mod, err = w.HostModule(rop.HostOptions{Secret: "S3CRET"})
		}
	}
	if err != nil {
		fatal(err)
	}
	img, err := mod.Link(*base)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if _, err := img.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *save)
	}
	dump(img, *gadgets)
}

func dump(img *isa.Image, gadgets bool) {
	fmt.Printf("sections:\n")
	fmt.Printf("  .text  %#x  %6d bytes  (%d instructions)\n", img.Base, len(img.Code), len(img.Code)/isa.InstrSize)
	fmt.Printf("  .data  %#x  %6d bytes\n\n", img.DataBase, len(img.Data))

	fmt.Println("symbols:")
	type sym struct {
		name string
		addr uint64
	}
	var syms []sym
	for n, a := range img.Symbols {
		syms = append(syms, sym{n, a})
	}
	// Aliases share an address; the name breaks the tie so the table
	// never depends on map order.
	sort.Slice(syms, func(i, j int) bool {
		return syms[i].addr < syms[j].addr || syms[i].addr == syms[j].addr && syms[i].name < syms[j].name
	})
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, s := range syms {
		sec := ".text"
		if s.addr >= img.DataBase {
			sec = ".data"
		}
		fmt.Fprintf(tw, "  %#010x\t%s\t%s\n", s.addr, sec, s.name)
	}
	tw.Flush()
	fmt.Println()

	if gadgets {
		cat := gadget.ScanAndCatalog(img, 3)
		fmt.Printf("gadgets (%d):\n", len(cat.All()))
		for _, g := range cat.All() {
			fmt.Println("  ", g)
		}
		return
	}
	fmt.Println("disassembly:")
	fmt.Print(isa.DisasmAll(img.Code, img.Base))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "objdump:", err)
	os.Exit(1)
}
