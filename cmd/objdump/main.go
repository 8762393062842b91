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
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/gadget"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/spectre"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the tool against args, writing the dump to stdout. It is
// the testable core of main.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("objdump", flag.ContinueOnError)
	var (
		hostName = fs.String("host", "math", "workload to dump")
		attack   = fs.Bool("attack", false, "dump a generated attack binary instead")
		variant  = fs.String("variant", "v1-bounds-check", "attack variant (with -attack)")
		gadgets  = fs.Bool("gadgets", false, "print the gadget catalogue instead of full disassembly")
		base     = fs.Uint64("base", rop.HostBase, "link base address")
		save     = fs.String("save", "", "also write the linked image as a SIMX object file")
		loadObj  = fs.String("load", "", "dump a SIMX object file instead of building one")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *loadObj != "" {
		f, err := os.Open(*loadObj)
		if err != nil {
			return err
		}
		img, err := isa.ReadImage(f)
		f.Close()
		if err != nil {
			return err
		}
		dump(stdout, img, *gadgets)
		return nil
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
			return fmt.Errorf("unknown variant %q", *variant)
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
		return err
	}
	img, err := mod.Link(*base)
	if err != nil {
		return err
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if _, err := img.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *save)
	}
	dump(stdout, img, *gadgets)
	return nil
}

func dump(w io.Writer, img *isa.Image, gadgets bool) {
	fmt.Fprintf(w, "sections:\n")
	fmt.Fprintf(w, "  .text  %#x  %6d bytes  (%d instructions)\n", img.Base, len(img.Code), len(img.Code)/isa.InstrSize)
	fmt.Fprintf(w, "  .data  %#x  %6d bytes\n\n", img.DataBase, img.DataSize)

	fmt.Fprintln(w, "symbols:")
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
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, s := range syms {
		sec := ".text"
		if s.addr >= img.DataBase {
			sec = ".data"
		}
		fmt.Fprintf(tw, "  %#010x\t%s\t%s\n", s.addr, sec, s.name)
	}
	tw.Flush()
	fmt.Fprintln(w)

	if gadgets {
		cat := gadget.ScanAndCatalog(img, 3)
		fmt.Fprintf(w, "gadgets (%d):\n", len(cat.All()))
		for _, g := range cat.All() {
			fmt.Fprintln(w, "  ", g)
		}
		return
	}
	fmt.Fprintln(w, "disassembly:")
	fmt.Fprint(w, isa.DisasmAll(img.Code, img.Base))
}
