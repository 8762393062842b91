package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
)

// syncWriter lets the serve goroutine and test assertions share a
// stdout buffer safely.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// TestServeSubmitDrain drives the whole binary surface: serve on an
// ephemeral port, run a job through the submit/status/fetch verbs, then
// deliver SIGTERM and require a clean drain.
func TestServeSubmitDrain(t *testing.T) {
	data := t.TempDir()
	sig := make(chan os.Signal, 1)
	out := &syncWriter{}
	served := make(chan error, 1)
	go func() {
		served <- run([]string{"serve", "-addr", "127.0.0.1:0", "-data", data,
			"-max-jobs", "1", "-quiet"}, out, sig)
	}()

	// Wait for the parseable startup line and extract the base URL.
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		select {
		case err := <-served:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Submit-and-wait through the client verb; parse the echoed status.
	var submitOut strings.Builder
	err := runSubmit([]string{"-addr", base, "-id", "cli-job", "-kind", "attack",
		"-reps", "4", "-seed", "9", "-wait"}, &submitOut)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(submitOut.String()), &st); err != nil {
		t.Fatalf("submit output not JSON: %v\n%s", err, submitOut.String())
	}
	if st.ID != "cli-job" || st.State != "done" {
		t.Fatalf("submit -wait returned %+v, want cli-job done", st)
	}

	var statusOut strings.Builder
	if err := runStatus([]string{"-addr", base, "cli-job"}, &statusOut); err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(statusOut.String(), `"done"`) {
		t.Errorf("status output lacks terminal state:\n%s", statusOut.String())
	}

	// Fetch an artifact to a file and cross-check it against the store.
	dest := filepath.Join(t.TempDir(), "m.json")
	if err := runFetch([]string{"-addr", base, "-o", dest, "cli-job", "manifest.json"}, io.Discard); err != nil {
		t.Fatalf("fetch: %v", err)
	}
	fetched, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(data, "cli-job", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(fetched) != string(stored) {
		t.Error("fetched manifest differs from the artifact store copy")
	}

	// Unknown job through the verbs: a clean error, not a hang.
	if err := runCancel([]string{"-addr", base, "nope"}, io.Discard); err == nil {
		t.Error("cancel of unknown job returned nil error")
	}

	// SIGTERM: the daemon must drain and run() must return nil.
	sig <- syscall.SIGTERM
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve exited with error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if got := out.String(); !strings.Contains(got, "draining") || !strings.Contains(got, "drained, bye") {
		t.Errorf("drain narration missing from output:\n%s", got)
	}
}

// TestUsageErrors pins exit-path classification for bad invocations.
func TestUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard, nil); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("no subcommand = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"frobnicate"}, io.Discard, nil); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown subcommand = %v, want cli.ErrUsage (exit 2)", err)
	}
	if err := run([]string{"serve", "-nosuch"}, io.Discard, nil); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("serve -nosuch = %v, want cli.ErrUsage (exit 2)", err)
	}
	var help strings.Builder
	if err := run([]string{"-h"}, &help, nil); !errors.Is(err, flag.ErrHelp) || !strings.Contains(help.String(), "serve|submit") {
		t.Errorf("-h = %v, printed %q; want flag.ErrHelp (exit 0) after the subcommands", err, help.String())
	}
	if err := runServe([]string{"-h"}, io.Discard, nil); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("serve -h = %v, want flag.ErrHelp (exit 0)", err)
	}
	if err := runStatus([]string{"-addr", "http://127.0.0.1:1"}, io.Discard); !errors.Is(err, cli.ErrUsage) ||
		!strings.Contains(err.Error(), "job-id") {
		t.Errorf("status without ID = %v, want a cli.ErrUsage naming the job-id (exit 2)", err)
	}
	if err := runFetch([]string{"-addr", "http://127.0.0.1:1", "only-one"}, io.Discard); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("fetch without artifact name = %v, want cli.ErrUsage (exit 2)", err)
	}
}
