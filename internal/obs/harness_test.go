package obs

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// TestStartNoop pins the disabled path: with no observability flag the
// harness builds no sink, serves nothing and writes nothing.
func TestStartNoop(t *testing.T) {
	h, err := Start(Config{Tool: "harnesstest", Exclude: []telemetry.Kind{telemetry.KindRetire}, Stall: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if h.Sinks != (sched.Sinks{}) || h.srv != nil {
		t.Errorf("no flags built sinks %+v, server %v", h.Sinks, h.srv)
	}
	var out strings.Builder
	if err := h.WriteOutputs(&out, nil); err != nil || out.Len() != 0 {
		t.Errorf("WriteOutputs without flags = %v, wrote %q", err, out.String())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStartSinks checks the sink rule: a recorder for any output flag,
// the registry and tracker too for -manifest, and the files each flag
// names, announced in order.
func TestStartSinks(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	manifest := filepath.Join(dir, "m.json")
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantTrack bool
		wantLines []string
	}{
		{"trace", Config{Trace: trace}, false, []string{"wrote trace " + trace + " (1 events, 0 dropped)"}},
		{"manifest", Config{Manifest: manifest}, true, []string{"wrote manifest " + manifest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Tool = "harnesstest"
			tc.cfg.Exclude = []telemetry.Kind{telemetry.KindRetire}
			h, err := Start(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if h.Telemetry == nil || (h.Metrics != nil) != tc.wantTrack || (h.Tracker != nil) != tc.wantTrack {
				t.Fatalf("sinks %+v, want recorder and tracking %v", h.Sinks, tc.wantTrack)
			}
			h.Telemetry.Emit(telemetry.Event{Kind: telemetry.KindRetire})
			h.Telemetry.Emit(telemetry.Event{Kind: telemetry.KindExec})
			var out strings.Builder
			if err := h.WriteOutputs(&out, telemetry.NewManifest("harnesstest", nil)); err != nil {
				t.Fatal(err)
			}
			if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); strings.Join(got, "|") != strings.Join(tc.wantLines, "|") {
				t.Errorf("wrote lines %q, want %q", got, tc.wantLines)
			}
			if !tc.wantTrack {
				return
			}
			m, err := telemetry.ReadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if m.Tool != "harnesstest" || m.RunID != h.runID || m.Events["retire"] != 1 || m.Events["exec"] != 1 {
				t.Errorf("manifest tool %q run %q events %v", m.Tool, m.RunID, m.Events)
			}
		})
	}
}

// TestStartObs serves the live surface until Close, which also stops
// the watchdog: no goroutine the harness started outlives it.
func TestStartObs(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := Start(Config{Tool: "harnesstest", Obs: "127.0.0.1:0", Stall: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if h.Telemetry == nil || h.Metrics == nil || h.Tracker == nil {
		t.Fatalf("-obs sinks %+v, want all three", h.Sinks)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + h.srv.Addr() + "/healthz"
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(url); err == nil {
		t.Error("server still answering after Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Start", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStartObsBadAddr(t *testing.T) {
	if _, err := Start(Config{Tool: "harnesstest", Obs: "not-an-address"}); err == nil {
		t.Fatal("want error for an unbindable -obs address")
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	heap := filepath.Join(dir, "mem.prof")

	h, err := Start(Config{CPUProfile: cpu, MemProfile: heap})
	if err != nil {
		t.Fatal(err)
	}
	// A little allocation so both profiles have something to record.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<12))
	}
	_ = sink
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(Config{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err == nil {
		t.Fatal("want error for uncreatable profile path")
	}
}
