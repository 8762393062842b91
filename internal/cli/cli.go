// Package cli is the command-line contract every tool under cmd/
// shares: how a command line is parsed, and how the error a run returns
// becomes the process's exit status.
//
// The rule: a run that returns nil, or flag.ErrHelp after -h printed
// the usage, exits 0; a usage error exits 2; any other error exits 1.
// Each error is printed once, on standard error, with the tool's name
// in front once. A command line the flag set rejected has been printed
// by the set already, with its usage, so nothing more is printed.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ErrUsage marks a bad invocation a tool finds itself, such as an
// unknown verb or a missing argument; wrap it and the tool exits 2.
var ErrUsage = errors.New("usage")

// rejected is a command line the flag set rejected and has reported.
type rejected struct{ error }

func (r rejected) Unwrap() []error { return []error{r.error, ErrUsage} }

// Parse parses args into fs. A command line fs rejects returns an
// ErrUsage error that Exit does not print again; -h returns
// flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return rejected{err}
}

// Exit ends the process with err's status, printing err by the rule
// above under the name the tool was run as.
func Exit(err error) {
	os.Exit(report(os.Stderr, filepath.Base(os.Args[0]), err))
}

// report prints err for tool name to stderr and returns its status.
func report(stderr io.Writer, name string, err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.As(err, new(rejected)) {
		msg := err.Error()
		if !strings.HasPrefix(msg, name+":") && !strings.HasPrefix(msg, name+" ") {
			msg = name + ": " + msg
		}
		fmt.Fprintln(stderr, msg)
	}
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}
