// Command defensematrix evaluates the CR-Spectre attack chain against
// the defense landscape the paper discusses (§I and §IV): DEP, stack
// canaries, ASLR (with and without the published info-leak bypasses),
// privileged CLFLUSH, InvisiSpec-style fill rollback, and full
// speculation disable — one row per scenario — followed by the full
// variant × mitigation grid (v1/v2/v4/RSB against the software postures
// of Bălucea & Irofti plus InvisiSpec and SSBD). Every grid cell is
// checked against the pinned ExpectedLeak ground truth; any mismatch
// exits non-zero, so the command doubles as an acceptance gate.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/defense"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("defensematrix", flag.ContinueOnError)
	seed := fs.Int64("seed", 11, "layout/canary seed")
	csvDir := fs.String("csv", "", "also write defensematrix.csv and variantmatrix.csv into this directory")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	rows, err := defense.Matrix(*seed)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tattack\tstage\tdetail")
	for _, r := range rows {
		result := "BLOCKED"
		if r.Outcome.Success {
			result = "SUCCEEDS"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.Name, result, r.Outcome.Stage, r.Outcome.Detail)
	}
	tw.Flush()

	cells, err := defense.VariantMatrix(*seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "variant × mitigation (LEAK = secret recovered, sealed = attack stopped):")
	tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "variant")
	for _, m := range defense.Mitigations() {
		fmt.Fprintf(tw, "\t%s", m)
	}
	fmt.Fprintln(tw)
	mismatches := 0
	byVariant := map[string][]defense.VariantCell{}
	var order []string
	for _, c := range cells {
		v := c.Variant.String()
		if len(byVariant[v]) == 0 {
			order = append(order, v)
		}
		byVariant[v] = append(byVariant[v], c)
	}
	for _, v := range order {
		fmt.Fprint(tw, v)
		for _, c := range byVariant[v] {
			cell := "sealed"
			if c.Outcome.Success {
				cell = "LEAK"
			}
			if !c.Agrees() {
				cell += "(!)"
				mismatches++
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, rows, cells); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nCSV grids written to %s\n", *csvDir)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d cells disagree with ExpectedLeak ground truth", mismatches)
	}
	return nil
}

func writeCSVs(dir string, rows []defense.MatrixRow, cells []defense.VariantCell) error {
	f, err := os.Create(filepath.Join(dir, "defensematrix.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"scenario", "attack_succeeds", "stage", "detail"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Name, strconv.FormatBool(r.Outcome.Success), string(r.Outcome.Stage), r.Outcome.Detail}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}

	g, err := os.Create(filepath.Join(dir, "variantmatrix.csv"))
	if err != nil {
		return err
	}
	defer g.Close()
	w = csv.NewWriter(g)
	if err := w.Write([]string{"variant", "mitigation", "leaks", "expected", "agrees", "stage"}); err != nil {
		return err
	}
	for _, c := range cells {
		if err := w.Write([]string{
			c.Variant.String(), c.Mitigation.String(),
			strconv.FormatBool(c.Outcome.Success), strconv.FormatBool(c.Expected),
			strconv.FormatBool(c.Agrees()), string(c.Outcome.Stage),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
