// Command crspectred is the simulator-as-a-service daemon: a
// long-running job server that accepts campaign jobs over HTTP/JSON
// (internal/controlapi), runs them on internal/sched worker pools under
// a concurrency limit, streams per-job progress and telemetry events,
// and serves the finished artifacts. The same binary doubles as the
// command-line client for the daemon's API.
//
// Usage:
//
//	crspectred serve -addr 127.0.0.1:7099 -data ./jobs -max-jobs 2
//	crspectred submit -addr http://127.0.0.1:7099 -kind fig4 -samples 40 -wait
//	crspectred status -addr http://127.0.0.1:7099 <job-id>
//	crspectred cancel -addr http://127.0.0.1:7099 <job-id>
//	crspectred fetch  -addr http://127.0.0.1:7099 <job-id> manifest.json
//
// The daemon drains gracefully on SIGTERM/SIGINT: it stops accepting
// jobs, lets the in-flight ones finish (up to -drain), then cancels
// stragglers — every job flushes its manifest either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/cli"
	"repro/internal/controlapi"
	"repro/internal/telemetry"
)

// errSubcommand is a command line that names no known subcommand.
var errSubcommand = fmt.Errorf("%w: want a subcommand: serve, submit, status, cancel, fetch", cli.ErrUsage)

// usage is what crspectred -h prints.
const usage = `usage: crspectred serve|submit|status|cancel|fetch [flags] [args]
Run "crspectred <subcommand> -h" for a subcommand's flags.`

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	cli.Exit(run(os.Args[1:], os.Stdout, sig))
}

// run dispatches the subcommand. It is the testable core of main: sig
// delivers shutdown signals to serve mode (tests feed it directly).
func run(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	if len(args) == 0 {
		return errSubcommand
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "-h", "-help", "--help":
		fmt.Fprintln(stdout, usage)
		return flag.ErrHelp
	case "serve":
		return runServe(rest, stdout, sig)
	case "submit":
		return runSubmit(rest, stdout)
	case "status":
		return runStatus(rest, stdout)
	case "cancel":
		return runCancel(rest, stdout)
	case "fetch":
		return runFetch(rest, stdout)
	default:
		return fmt.Errorf("%w (got %q)", errSubcommand, cmd)
	}
}

func runServe(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("crspectred serve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7099", "listen address (port 0 picks a free port)")
		data    = fs.String("data", "", "artifact root directory (empty = a fresh temp dir)")
		maxJobs = fs.Int("max-jobs", 2, "jobs running concurrently; the rest queue")
		workers = fs.Int("workers", 0, "default per-job sched fan-out (0 = all cores)")
		drain   = fs.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled")
		quiet   = fs.Bool("quiet", false, "suppress request and lifecycle logging")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	var log *slog.Logger
	if !*quiet {
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv, err := controlapi.New(controlapi.Options{
		DataDir:        *data,
		MaxJobs:        *maxJobs,
		DefaultWorkers: *workers,
		RunID:          telemetry.NewRunID(),
		Log:            log,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("crspectred: %w", err)
	}
	// The parseable startup line: CI and tests read the resolved address
	// (meaningful with port 0) and the artifact root from here.
	fmt.Fprintf(stdout, "crspectred listening on http://%s (data %s, max-jobs %d)\n",
		ln.Addr(), srv.DataDir(), *maxJobs)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("crspectred: %w", err)
	case s := <-sig:
		fmt.Fprintf(stdout, "crspectred: %v: draining (budget %s)\n", s, *drain)
	}

	// Drain first — the daemon keeps answering status/event/artifact
	// requests while in-flight jobs finish — then shut the listener down.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	srv.Drain(dctx)
	cancel()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("crspectred: shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "crspectred: drained, bye")
	return nil
}

// clientFlags are the flags every client verb shares.
func clientFlags(fs *flag.FlagSet) (addr *string, timeout *time.Duration) {
	addr = fs.String("addr", "http://127.0.0.1:7099", "daemon base URL")
	timeout = fs.Duration("timeout", 10*time.Minute, "overall request/wait deadline")
	return
}

func printJSON(stdout io.Writer, v any) error {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runSubmit(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crspectred submit", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	var spec controlapi.JobSpec
	fs.StringVar(&spec.ID, "id", "", "job ID (empty = generated; resubmitting an ID is idempotent)")
	fs.StringVar(&spec.Kind, "kind", "", "job kind: fig4, fig5, fig6, table1, attack")
	fs.Int64Var(&spec.Seed, "seed", 0, "pipeline seed (0 = default 1)")
	fs.IntVar(&spec.Workers, "workers", 0, "job fan-out (0 = daemon default); results identical for any value")
	fs.IntVar(&spec.Samples, "samples", 0, "training samples per class for campaign kinds (0 = default)")
	fs.IntVar(&spec.Attempts, "attempts", 0, "attack attempts for campaign kinds (0 = default)")
	fs.IntVar(&spec.Reps, "reps", 0, "repetitions (0 = kind default)")
	fs.StringVar(&spec.Variant, "variant", "", "speculation variant for -kind attack")
	fs.StringVar(&spec.Posture, "posture", "", "defense posture for -kind attack")
	fs.BoolVar(&spec.Perturb, "perturb", false, "enable defense-aware perturbation for -kind attack")
	wait := fs.Bool("wait", false, "block until the job reaches a terminal state")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if *wait {
		if st, err = c.WaitDone(ctx, st.ID); err != nil {
			return err
		}
		if st.State != controlapi.StateDone {
			if perr := printJSON(stdout, st); perr != nil {
				return perr
			}
			return fmt.Errorf("crspectred: job %s finished %s: %s", st.ID, st.State, st.Error)
		}
	}
	return printJSON(stdout, st)
}

// oneIDArg parses the single positional <job-id> of status/cancel.
func oneIDArg(fs *flag.FlagSet, verb string) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%w: %s wants exactly one <job-id> argument", cli.ErrUsage, verb)
	}
	return fs.Arg(0), nil
}

func runStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crspectred status", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	id, err := oneIDArg(fs, "status")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st, err := client.New(*addr).Status(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(stdout, st)
}

func runCancel(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crspectred cancel", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	id, err := oneIDArg(fs, "cancel")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	st, err := client.New(*addr).Cancel(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(stdout, st)
}

func runFetch(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crspectred fetch", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	out := fs.String("o", "", "write the artifact to this file instead of stdout")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("%w: fetch wants <job-id> <artifact-name>", cli.ErrUsage)
	}
	id, name := fs.Arg(0), fs.Arg(1)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err := client.New(*addr).Fetch(ctx, id, name, w)
	return err
}
