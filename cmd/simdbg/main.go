// Command simdbg is the platform's GDB analogue: it loads a workload (or
// the full CR-Spectre scenario), optionally sets a breakpoint at a
// symbol, runs, and dumps symbolised state — registers, the
// reconstructed call stack (where a ROP hijack shows up as dangling
// frames), and the unified telemetry event timeline (speculation
// episodes, cache traffic, RET pivots, covert probes) around each stop.
//
// Usage:
//
//	simdbg -host math -break workload_main          # stop at the kernel
//	simdbg -host math -attack -events 40            # watch the hijack
//	simdbg -host math -attack -trace t.json         # export for Perfetto
//	simdbg -metrics out/manifest.json               # inspect a run's metrics
//	simdbg -metrics 127.0.0.1:9464                  # ...or a live obs server's
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/debug"
	"repro/internal/gadget"
	"repro/internal/mibench"
	"repro/internal/obs"
	"repro/internal/rop"
	"repro/internal/spectre"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func main() { cli.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one debugger session against args, writing the session
// to stdout. It is the testable core of main.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simdbg", flag.ContinueOnError)
	var (
		hostName = fs.String("host", "math", "workload to load")
		bp       = fs.String("break", "", "break at this symbol")
		attack   = fs.Bool("attack", false, "run the CR-Spectre injection instead of a benign input")
		events   = fs.Int("events", 25, "telemetry events to dump at each stop")
		budget   = fs.Uint64("budget", 200_000_000, "instruction budget")
		watchRet = fs.Bool("watchret", false, "watch the saved-return-address slot and report who wrote it")
		blocks   = fs.Bool("blocks", false, "run hook-free and dump the superblock cache (tier introspection; ignores -break/-watchret)")
		metrics  = fs.String("metrics", "", "dump the metrics of a run manifest file or a live obs server (host:port or URL) and exit")
	)
	oc := obs.Config{Tool: "simdbg"}
	fs.StringVar(&oc.Trace, "trace", "", "write a Chrome/Perfetto trace of the session to this file")
	fs.StringVar(&oc.TraceEvents, "trace-events", "", "write the raw JSONL event log to this file")
	fs.StringVar(&oc.Manifest, "manifest", "", "write a session manifest to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *metrics != "" {
		// Metrics inspection is a standalone mode: no workload is
		// loaded, the source is another run entirely.
		return dumpMetrics(stdout, *metrics)
	}

	h, err := obs.Start(oc)
	if err != nil {
		return err
	}
	defer h.Close()
	// The debugger always records: its whole point is observation, so
	// the telemetry ring is on whatever the flags say (unlike the batch
	// tools, which only pay for it when an export flag asks).
	rec := h.Telemetry
	if rec == nil {
		rec = telemetry.NewRecorder(0)
	}

	host, err := mibench.ByName(*hostName)
	if err != nil {
		return err
	}
	opts := rop.HostOptions{}
	if *attack {
		opts.Secret = "S3CRET"
	}
	hostMod, err := host.HostModule(opts)
	if err != nil {
		return err
	}
	cfg := vm.DefaultConfig()
	cfg.Telemetry = rec
	m := vm.New(cfg)
	m.Register(host.Name, hostMod, rop.HostBase)
	img, err := m.Load(host.Name)
	if err != nil {
		return err
	}

	arg := []byte("benign")
	if *attack {
		att := spectre.Config{
			Variant:    spectre.V1BoundsCheck,
			TargetAddr: img.MustSymbol("__secret"),
			SecretLen:  6,
			ResumePath: host.Name + "#workload_entry",
		}
		attMod, err := att.Module()
		if err != nil {
			return err
		}
		m.Register("crspectre", attMod, 0x600000)
		plan, err := rop.PlanInjection(gadget.ScanAndCatalog(img, 3), "crspectre", nil)
		if err != nil {
			return err
		}
		plan.Emit(rec)
		arg = plan.Payload
		fmt.Fprintf(stdout, "loaded %s with a %d-word ROP payload\n", host.Name, plan.Chain.Len())
	}

	if _, err := m.SetArg(arg); err != nil {
		return err
	}
	if err := m.Start(host.Name); err != nil {
		return err
	}

	if *blocks {
		// Tier introspection: per-instruction debug hooks (OnRetire)
		// force the single-step interpreter, so a -blocks session runs
		// bare and attaches symbols only afterwards, for the dump.
		runErr := m.CPU.Run(*budget)
		d := debug.Attach(m.CPU)
		d.AddSymbols(img.Symbols)
		if aimg, ok := m.Image("crspectre"); ok {
			d.AddSymbols(aimg.Symbols)
		}
		if runErr != nil && runErr != cpu.ErrBudget {
			fmt.Fprintf(stdout, "stopped: %v\n", runErr)
		} else {
			fmt.Fprintf(stdout, "program %s\n", map[bool]string{true: "halted", false: "hit the budget"}[m.CPU.Halted()])
			fmt.Fprintf(stdout, "output: %q\n", m.Output.String())
		}
		dumpBlocks(stdout, d, m.CPU)
		return nil
	}

	d := debug.Attach(m.CPU)
	d.AddSymbols(img.Symbols)
	if aimg, ok := m.Image("crspectre"); ok {
		d.AddSymbols(aimg.Symbols)
		// Mark the attack image's probe array so loads into it surface
		// as covert_probe events on the timeline.
		spectre.AnnotateProbe(m.CPU, aimg)
	}
	if *watchRet {
		// _start's CALL pushes the return address one word below the
		// initial SP; the overflow smashes exactly that slot.
		d.WatchWrites("saved-ret", m.StackTop()-8, 8)
		fmt.Fprintf(stdout, "watching the saved-return-address slot at %#x\n", m.StackTop()-8)
	}
	if *bp != "" {
		if err := d.BreakSymbol(*bp); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "breakpoint at %s\n", *bp)
	}

	// The requested outputs are written at a halt and at a stop alike,
	// so a crashed session still leaves its timeline behind.
	mf := telemetry.NewManifest("simdbg", args)
	mf.Config = map[string]any{
		"host":   *hostName,
		"attack": *attack,
		"break":  *bp,
		"budget": *budget,
	}

	for {
		err := d.Run(*budget)
		var br *debug.ErrBreak
		switch {
		case err == nil:
			fmt.Fprintln(stdout, "\nprogram halted")
			fmt.Fprintf(stdout, "output: %q\n", m.Output.String())
			d.DumpState(stdout)
			d.DumpEvents(stdout, rec, *events)
			if *watchRet {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, d.ReportWatches())
			}
			return h.WriteOutputs(stdout, mf)
		case errors.As(err, &br):
			fmt.Fprintf(stdout, "\nbreakpoint hit at %s (cycle %d)\n", d.Symbolize(br.PC), br.Cycle)
			d.DumpState(stdout)
			d.DumpEvents(stdout, rec, *events)
			fmt.Fprintln(stdout, "\ncontinuing...")
		default:
			fmt.Fprintf(stdout, "\nstopped: %v\n", err)
			d.DumpState(stdout)
			d.DumpEvents(stdout, rec, *events)
			if werr := h.WriteOutputs(stdout, mf); werr != nil {
				return werr
			}
			return fmt.Errorf("stopped: %w", err)
		}
	}
}

// dumpBlocks renders the live superblock cache hottest-first: which
// guest regions compiled, how they exit, and how much execution they
// absorbed (DESIGN.md §11's introspection surface).
func dumpBlocks(w io.Writer, d *debug.Debugger, c *cpu.CPU) {
	st := c.BlockStats()
	fmt.Fprintf(w, "\nblock cache: %d compiled, %d hits, %d invalidations\n",
		st.Compiled, st.Hits, st.Invalidations)
	infos := c.Blocks()
	sort.SliceStable(infos, func(i, j int) bool { return infos[i].Hits > infos[j].Hits })
	for _, b := range infos {
		tag := ""
		if !b.Valid {
			tag = " stale"
		}
		fmt.Fprintf(w, "  %#x..%#x  %-28s %2d instrs  exit %-12s hits %-9d%s\n",
			b.StartPC, b.EndPC, d.Symbolize(b.StartPC), b.Instrs, b.Exit, b.Hits, tag)
	}
}
