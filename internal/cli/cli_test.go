package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestReport maps each kind of error a run returns to its exit status
// and the text it prints on stderr, without exiting.
func TestReport(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parseErr := Parse(fs, []string{"-nosuch"})
	if parseErr == nil {
		t.Fatal("Parse accepted an undefined flag")
	}
	if err := Parse(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) || errors.Is(err, ErrUsage) {
		t.Errorf("Parse(-h) = %v, want flag.ErrHelp", err)
	}

	for _, tc := range []struct {
		name   string
		err    error
		status int
		stderr string
	}{
		{"nil", nil, 0, ""},
		{"help", flag.ErrHelp, 0, ""},
		{"rejected", parseErr, 2, ""},
		{"rejected-wrapped", fmt.Errorf("serve: %w", parseErr), 2, ""},
		{"usage", fmt.Errorf("%w: unknown verb %q", ErrUsage, "frob"), 2, "tool: usage: unknown verb \"frob\"\n"},
		{"plain", errors.New("disk full"), 1, "tool: disk full\n"},
		{"named", errors.New("tool: 3 disagreements"), 1, "tool: 3 disagreements\n"},
		{"named-verb", errors.New("tool fetch: want <job-id>"), 1, "tool fetch: want <job-id>\n"},
		{"other-tool", errors.New("toolbox: broken"), 1, "tool: toolbox: broken\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := report(&stderr, "tool", tc.err); got != tc.status {
				t.Errorf("status %d, want %d", got, tc.status)
			}
			if stderr.String() != tc.stderr {
				t.Errorf("stderr %q, want %q", stderr.String(), tc.stderr)
			}
		})
	}
}
