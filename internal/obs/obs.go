// Package obs is the tools' observability: the harness that wires the
// observability flags of crspectre, experiments, difftest, speclint and
// simdbg, and the embeddable, opt-in server behind the `-obs addr` flag
// of crspectre, experiments, difftest and speclint (lint and scan),
// which serves live introspection over HTTP while a campaign runs. The
// crspectred daemon mounts the same surface on its own mux (Register).
//
// The harness (Start) takes a tool's flag values and wires the rest
// once: the telemetry sinks, the server and its stall watchdog, the
// -cpuprofile/-memprofile host profiles, and the -trace, -trace-events
// and -manifest files. The server's surface:
//
//	/healthz          liveness probe (plain "ok")
//	/buildz           build info, run ID, uptime (JSON)
//	/metrics          Prometheus text exposition of the telemetry registry
//	/metrics.json     the same snapshot as structured JSON (simdbg -metrics)
//	/progress         live campaign state per scheduler pool (JSON)
//	/events           SSE/JSONL stream tailing the telemetry event ring
//	/debug/pprof/*    the standard runtime profiles
//
// Everything is read-only and backed by the nil-safe telemetry sinks,
// so the disabled path (no -obs flag) costs the host program nothing
// beyond the nil checks it already pays.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Options wires the server to a run's telemetry sinks: the registry
// backs /metrics and /metrics.json, the recorder /events, and the
// tracker /progress. Every field is optional; endpoints backed by an
// absent sink degrade to empty (or 503 for /events, which cannot stream
// without a recorder).
type Options struct {
	Tool  string // host program name, surfaced in /buildz
	RunID string // telemetry.NewRunID(), surfaced everywhere
	sched.Sinks
	Log *slog.Logger // request logging; nil disables
}

// handler bundles the options with the server start time for uptime.
type handler struct {
	opts  Options
	start time.Time
}

// NewHandler builds the observability mux. Exposed separately from
// Serve so tests (and embedders with their own server) can mount it.
func NewHandler(opts Options) http.Handler {
	return Register(http.NewServeMux(), opts)
}

// Register mounts the observability surface onto an existing mux — the
// embedding path for hosts (like the crspectred control API) that serve
// their own routes alongside it. Patterns the mux has already claimed
// are skipped rather than re-registered: http.ServeMux panics on
// duplicate patterns, and a daemon that registers its own pprof or
// metrics handlers before (or after, via a second Register call)
// embedding the obs surface must not collide with it. The returned
// handler serves mux with request logging when opts.Log is set (it is
// what NewHandler returns); embedders with their own logging serve the
// mux directly and can ignore it.
func Register(mux *http.ServeMux, opts Options) http.Handler {
	h := &handler{opts: opts, start: time.Now()}
	register(mux, "/healthz", http.HandlerFunc(h.healthz))
	register(mux, "/buildz", http.HandlerFunc(h.buildz))
	register(mux, "/metrics", http.HandlerFunc(h.metrics))
	register(mux, "/metrics.json", http.HandlerFunc(h.metricsJSON))
	register(mux, "/progress", http.HandlerFunc(h.progress))
	register(mux, "/events", http.HandlerFunc(h.events))
	register(mux, "/debug/pprof/", http.HandlerFunc(pprof.Index))
	register(mux, "/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	register(mux, "/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	register(mux, "/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	register(mux, "/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	return h.logRequests(mux)
}

// register claims pattern on mux unless the exact pattern is already
// registered. The probe uses ServeMux.Handler, which reports the
// pattern that would serve a request without invoking any handler; an
// exact match means a previous registration (obs or host) owns it.
func register(mux *http.ServeMux, pattern string, h http.Handler) {
	probe := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: pattern}}
	if _, got := mux.Handler(probe); got == pattern {
		return
	}
	mux.Handle(pattern, h)
}

func (h *handler) logRequests(next http.Handler) http.Handler {
	if h.opts.Log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		h.opts.Log.Info("obs request",
			"method", r.Method, "path", r.URL.Path, "remote", r.RemoteAddr,
			"dur_ms", time.Since(t0).Milliseconds())
	})
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// buildz mirrors what a run manifest records about provenance, but
// live: the probe that tells you *which* build and run you are talking
// to before you trust anything else it serves.
func (h *handler) buildz(w http.ResponseWriter, _ *http.Request) {
	info := map[string]any{
		"tool":          h.opts.Tool,
		"run_id":        h.opts.RunID,
		"uptime_sec":    time.Since(h.start).Seconds(),
		"pid":           os.Getpid(),
		"go_version":    runtime.Version(),
		"os":            runtime.GOOS,
		"arch":          runtime.GOARCH,
		"num_cpu":       runtime.NumCPU(),
		"num_goroutine": runtime.NumGoroutine(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info["revision"] = s.Value
			case "vcs.modified":
				info["modified"] = s.Value == "true"
			}
		}
	}
	writeJSON(w, info)
}

func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, h.opts.Metrics)
}

// metricsJSON is the machine-readable twin of /metrics, shaped exactly
// like cmd/simdbg -metrics expects: the registry snapshot plus every
// histogram (volatile included — this is the live view).
func (h *handler) metricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, MetricsSnapshot{
		RunID:      h.opts.RunID,
		Metrics:    h.opts.Metrics.Snapshot(),
		Histograms: h.opts.Metrics.HistogramSnapshots(true),
	})
}

// MetricsSnapshot is the /metrics.json document.
type MetricsSnapshot struct {
	RunID      string                        `json:"run_id,omitempty"`
	Metrics    []telemetry.Metric            `json:"metrics"`
	Histograms []telemetry.HistogramSnapshot `json:"histograms,omitempty"`
}

// ProgressDoc is the /progress document: live campaign state.
type ProgressDoc struct {
	Tool      string               `json:"tool,omitempty"`
	RunID     string               `json:"run_id,omitempty"`
	UptimeSec float64              `json:"uptime_sec"`
	Pools     []sched.PoolProgress `json:"pools"`
}

func (h *handler) progress(w http.ResponseWriter, _ *http.Request) {
	pools := h.opts.Tracker.Progress()
	if pools == nil {
		pools = []sched.PoolProgress{}
	}
	writeJSON(w, ProgressDoc{
		Tool:      h.opts.Tool,
		RunID:     h.opts.RunID,
		UptimeSec: time.Since(h.start).Seconds(),
		Pools:     pools,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observability listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	log  *slog.Logger
	done chan struct{}
}

// Serve binds addr (e.g. "127.0.0.1:9464", or ":0" for an ephemeral
// port) and serves the observability surface until ctx is cancelled or
// Close is called. It returns once the listener is bound, so callers
// can log Addr immediately; serving continues in the background.
func Serve(ctx context.Context, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: NewHandler(opts)},
		log:  opts.Log,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && opts.Log != nil {
			opts.Log.Error("obs server exited", "err", err)
		}
	}()
	go func() {
		select {
		case <-ctx.Done():
			_ = s.Close()
		case <-s.done:
		}
	}()
	if opts.Log != nil {
		opts.Log.Info("obs server listening", "addr", s.Addr())
	}
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully drains in-flight requests (bounded) and stops the
// server. Nil-safe, so hosts can `defer obsSrv.Close()` unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}
