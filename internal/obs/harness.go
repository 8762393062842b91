package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Config is what a tool hands Start once its flags are parsed: its
// name, the values of its observability flags (empty when a flag was
// not given, or when the tool has no such flag), and the two settings
// the tools differ on.
type Config struct {
	Tool string

	Trace       string // -trace: Chrome/Perfetto trace file
	TraceEvents string // -trace-events: JSONL event log
	Manifest    string // -manifest: run manifest file
	Obs         string // -obs: live server address
	CPUProfile  string // -cpuprofile
	MemProfile  string // -memprofile

	// Exclude lists the kinds the recorder counts but does not keep in
	// its ring.
	Exclude []telemetry.Kind
	// Stall is the watchdog's threshold under -obs.
	Stall time.Duration
}

// Harness is one tool run's observability, wired from its flags: the
// sinks, the live server and its stall watchdog, the host profiles, and
// the output files. Without any observability flag every sink is nil
// and nothing is served or written.
type Harness struct {
	sched.Sinks

	cfg       Config
	runID     string
	start     time.Time
	cpuFile   *os.File
	srv       *Server
	stopWatch func()
}

// Start wires a run's observability from cfg:
//
//   - it starts the -cpuprofile profile (the simulator is a pure-Go
//     interpreter, so host profiles are the ground truth for
//     optimisation work);
//   - it builds a recorder when any of -trace, -trace-events, -manifest
//     or -obs is set, and the registry and tracker too when -manifest or
//     -obs is;
//   - under -obs it serves the live surface and runs the stall watchdog,
//     logging through a logger keyed by the run ID.
//
// Close undoes all of it.
func Start(cfg Config) (*Harness, error) {
	h := &Harness{cfg: cfg, runID: telemetry.NewRunID(), start: time.Now(), stopWatch: func() {}}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		h.cpuFile = f
	}
	var log *slog.Logger
	if cfg.Obs != "" {
		log = telemetry.NewLogger(os.Stderr, cfg.Tool, h.runID)
	}
	switch {
	case cfg.Manifest != "" || cfg.Obs != "":
		h.Sinks = sched.NewSinks(log, cfg.Exclude...)
	case cfg.Trace != "" || cfg.TraceEvents != "":
		h.Telemetry = telemetry.NewRecorder(0)
		h.Telemetry.Exclude(cfg.Exclude...)
	}
	if cfg.Obs != "" {
		var err error
		h.srv, err = Serve(context.Background(), cfg.Obs, Options{Tool: cfg.Tool, RunID: h.runID, Sinks: h.Sinks, Log: log})
		if err != nil {
			return nil, errors.Join(err, h.Close())
		}
		h.stopWatch = h.Tracker.Watch(context.Background(), cfg.Stall)
	}
	return h, nil
}

// Close stops the watchdog and the server, finishes the CPU profile and
// writes the -memprofile heap profile, returning the profiles' error.
func (h *Harness) Close() error {
	h.stopWatch()
	_ = h.srv.Close()
	var err error
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		err = h.cpuFile.Close()
	}
	if h.cfg.MemProfile != "" {
		err = errors.Join(err, writeHeapProfile(h.cfg.MemProfile))
	}
	return err
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialise up-to-date allocation stats
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}

// WriteOutputs writes what the flags asked for, in this order: the
// trace, the event log and the manifest, each followed by its "wrote"
// line on w. m is the tool's manifest with its Config, Seed and Workers
// filled in; WriteOutputs stamps the run ID, the final progress and the
// sinks' totals into it, and ignores it without -manifest.
func (h *Harness) WriteOutputs(w io.Writer, m *telemetry.Manifest) error {
	if path := h.cfg.Trace; path != "" {
		if err := telemetry.WriteChromeTraceFile(path, h.Telemetry.Events()); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace %s (%d events, %d dropped)\n", path, h.Telemetry.Len(), h.Telemetry.Dropped())
	}
	if path := h.cfg.TraceEvents; path != "" {
		if err := telemetry.WriteJSONLFile(path, h.Telemetry.Events()); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote event log %s\n", path)
	}
	if path := h.cfg.Manifest; path != "" {
		m.RunID = h.runID
		h.Finish(m, h.start)
		if err := m.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote manifest %s\n", path)
	}
	return nil
}
