package controlapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
)

// Options configures a daemon instance.
type Options struct {
	// DataDir is the artifact root; each job owns the subdirectory named
	// by its ID. Empty creates a fresh temporary directory.
	DataDir string
	// MaxJobs bounds how many jobs *run* concurrently; submissions
	// beyond it queue (observably: their state stays "queued"). <= 0
	// selects 2.
	MaxJobs int
	// DefaultWorkers is the per-job sched fan-out used when a job spec
	// leaves Workers at 0. <= 0 selects all cores, like every CLI.
	DefaultWorkers int
	// RunID identifies this daemon process (telemetry.NewRunID); it is
	// stamped into every job manifest's run_id.
	RunID string
	// Log receives request and lifecycle logging; nil disables.
	Log *slog.Logger
}

// Server is the daemon: job registry, queue, executor pool, and HTTP
// surface. Create with New, serve Handler, stop with Drain (graceful)
// or Close (immediate).
type Server struct {
	opts    Options
	handler http.Handler
	reg     *telemetry.Registry // daemon-level metrics (job lifecycle counts)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	sem      chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
}

// New builds a daemon. The data directory is created eagerly so a
// misconfigured path fails at startup, not at first submission.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		dir, err := os.MkdirTemp("", "crspectred-*")
		if err != nil {
			return nil, fmt.Errorf("controlapi: %w", err)
		}
		opts.DataDir = dir
	} else if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("controlapi: %w", err)
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 2
	}
	if opts.RunID == "" {
		opts.RunID = telemetry.NewRunID()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		reg:        telemetry.NewRegistry(),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, opts.MaxJobs),
		jobs:       make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	// The embedded observability surface: /healthz, /buildz, /metrics
	// (the daemon-level registry), /debug/pprof. Register skips patterns
	// the daemon already claimed, so the two surfaces cannot collide
	// however often this runs (the double-registration regression). The
	// handler it returns logs each request when opts.Log is set.
	s.handler = obs.Register(mux, obs.Options{
		Tool:  "crspectred",
		RunID: opts.RunID,
		Sinks: sched.Sinks{Metrics: s.reg},
		Log:   opts.Log,
	})
	return s, nil
}

// DataDir reports the artifact root (useful with the temp-dir default).
func (s *Server) DataDir() string { return s.opts.DataDir }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain is the SIGTERM path: stop accepting new jobs, wait for
// in-flight and queued jobs to finish, and — once ctx expires — cancel
// whatever is still running. Every runner flushes its manifest before
// exiting, so even a cancelled job leaves a provenance record. Drain
// returns when the last job goroutine has exited.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
	}
}

// Close cancels every job immediately and waits for the runners to
// flush and exit — the non-graceful stop, and the test-suite cleanup.
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseCancel()
	s.wg.Wait()
}

// Draining reports whether the daemon has stopped accepting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// jobByID looks a job up.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleIndex is the discovery document: what this daemon runs and the
// vocabularies job specs draw from.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"service":  "crspectred",
		"run_id":   s.opts.RunID,
		"kinds":    JobKinds(),
		"variants": spectre.VariantNames(),
		"postures": defense.PostureNames(),
		"max_jobs": s.opts.MaxJobs,
		"draining": s.draining.Load(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reg.Inc("jobs.rejected")
		writeError(w, http.StatusServiceUnavailable, "daemon is draining: not accepting new jobs")
		return
	}
	spec, err := DecodeJobSpec(r.Body)
	if err != nil {
		s.reg.Inc("jobs.rejected")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if spec.ID != "" {
		if existing, ok := s.jobs[spec.ID]; ok {
			s.mu.Unlock()
			// Idempotent re-submission: the client retry path. The stored
			// spec wins; a different payload under the same ID is the
			// client's bug, surfaced by comparing the echoed spec.
			s.reg.Inc("jobs.deduped")
			writeJSON(w, http.StatusOK, s.statusWithArtifacts(existing))
			return
		}
	}
	id := spec.ID
	for id == "" || s.jobs[id] != nil {
		id = telemetry.NewRunID()
	}
	dir := filepath.Join(s.opts.DataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("controlapi: %v", err))
		return
	}
	jctx, jcancel := context.WithCancel(s.baseCtx)
	// Like crspectre's and experiments' sinks, a job's recorder counts
	// retirements without keeping them.
	j := &job{
		id: id, dir: dir, spec: spec,
		Sinks: sched.NewSinks(s.opts.Log, telemetry.KindRetire),
		ctx:   jctx, cancel: jcancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now().UTC(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.reg.Inc("jobs.submitted")
	if s.opts.Log != nil {
		s.opts.Log.Info("job submitted", "job", id, "kind", spec.Kind)
	}
	go s.execute(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// execute owns one job's lifecycle from queue slot to terminal state.
func (s *Server) execute(j *job) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-j.ctx.Done():
		j.finish(StateCancelled, "cancelled while queued")
		s.reg.Inc("jobs.cancelled")
		close(j.done)
		return
	}
	defer func() { <-s.sem }()
	if !j.toRunning() {
		j.finish(StateCancelled, "cancelled while queued")
		s.reg.Inc("jobs.cancelled")
		close(j.done)
		return
	}
	err := s.runJob(j.ctx, j)
	switch {
	case err == nil:
		j.finish(StateDone, "")
		s.reg.Inc("jobs.done")
	case j.cancelled(), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, err.Error())
		s.reg.Inc("jobs.cancelled")
	default:
		j.finish(StateFailed, err.Error())
		s.reg.Inc("jobs.failed")
	}
	if s.opts.Log != nil {
		st := j.status()
		s.opts.Log.Info("job finished", "job", j.id, "state", string(st.State), "error", st.Error)
	}
	close(j.done)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, s.statusWithArtifacts(j))
}

// statusWithArtifacts decorates a status snapshot with the artifact
// listing once the job can no longer change it.
func (s *Server) statusWithArtifacts(j *job) JobStatus {
	st := j.status()
	if st.State.Terminal() {
		st.Artifacts, _ = s.listArtifacts(j)
	}
	return st
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	alreadyRequested, terminal := j.requestCancel()
	switch {
	case terminal:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("job is already %s", j.status().State))
	case alreadyRequested:
		writeError(w, http.StatusConflict, "cancel already requested")
	default:
		if s.opts.Log != nil {
			s.opts.Log.Info("job cancel requested", "job", j.id)
		}
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	// The shared obs stream, bounded by the job's lifetime: when the job
	// reaches a terminal state the remaining ring drains and the stream
	// ends, so `client events --follow` terminates with the job.
	obs.ServeEventStream(w, r, j.Telemetry, j.done)
}

func (s *Server) listArtifacts(j *job) ([]Artifact, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	out := make([]Artifact, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, Artifact{Name: e.Name(), Size: info.Size()})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out, nil
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	arts, err := s.listArtifacts(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": arts})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	name := r.PathValue("name")
	// The artifact namespace is flat and the ID alphabet excludes path
	// separators; reject anything that could escape the job directory.
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		writeError(w, http.StatusBadRequest, "invalid artifact name")
		return
	}
	f, err := os.Open(filepath.Join(j.dir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such artifact")
		return
	}
	defer f.Close()
	ct := mime.TypeByExtension(filepath.Ext(name))
	if ct == "" {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	if info, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", fmt.Sprint(info.Size()))
	}
	_, _ = io.Copy(w, f)
}

// writeJSON / writeError are the wire helpers: every non-streaming
// response is a JSON document, errors as {"error": "..."}.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
