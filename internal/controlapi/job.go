package controlapi

import (
	"context"
	"sync"
	"time"

	"repro/internal/sched"
)

// State is one vertex of the job lifecycle state machine.
type State string

// The job states. Transitions: queued→running (a concurrency slot was
// acquired), queued→cancelled (cancel or drain before a slot freed),
// running→{done, failed, cancelled}. The three right-hand states are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: the job's goroutine has
// exited, its artifacts (including the manifest) are flushed, and its
// event stream has ended.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire form of one job's lifecycle snapshot — the
// /jobs/{id} document and the element of the /jobs listing.
type JobStatus struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// Error carries the failure (or cancellation) detail for terminal
	// non-done states.
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`            // RFC 3339 UTC
	Started  string `json:"started,omitempty"`  // set on queued→running
	Finished string `json:"finished,omitempty"` // set on the terminal transition
	// Progress is the live per-pool campaign progress of a running job
	// (the same shape the obs /progress endpoint serves).
	Progress []sched.PoolProgress `json:"progress,omitempty"`
	// Artifacts lists the job's artifact files, populated once terminal.
	Artifacts []Artifact `json:"artifacts,omitempty"`
}

// Artifact is one entry of a job's artifact listing.
type Artifact struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// job is the daemon-side job record. The telemetry sinks are per-job —
// a fresh recorder, registry and tracker each — so one job's events,
// metrics and manifest never bleed into another's (multi-tenant
// isolation, and the precondition for manifest byte-identity with a
// solo CLI run).
type job struct {
	id  string
	dir string // artifact directory

	sched.Sinks // the job's own, built by sched.NewSinks

	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state with every
	// artifact flushed; the event stream and WaitDone-style pollers key
	// off it.
	done chan struct{}

	mu              sync.Mutex
	spec            JobSpec
	state           State
	errMsg          string
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
}

// toRunning transitions queued→running; it fails when a cancel won the
// race.
func (j *job) toRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.cancelRequested {
		return false
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	return true
}

// finish records the terminal transition. The caller closes j.done
// afterwards (once artifacts are flushed).
func (j *job) finish(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.errMsg = errMsg
	j.finished = time.Now().UTC()
}

// requestCancel marks the job cancelled-by-request and fires its
// context. The second and later calls report alreadyRequested so the
// cancel endpoint can 409 on double-cancel; terminal reports the job
// was already finished.
func (j *job) requestCancel() (alreadyRequested, terminal bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false, true
	}
	if j.cancelRequested {
		j.mu.Unlock()
		return true, false
	}
	j.cancelRequested = true
	j.mu.Unlock()
	j.cancel()
	return false, false
}

// cancelled reports whether a cancel was requested (used by the runner
// to classify a context-cancellation error as StateCancelled rather
// than StateFailed).
func (j *job) cancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// status snapshots the job for the wire. Artifact listing is the
// caller's concern (it touches the filesystem).
func (j *job) status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Error:   j.errMsg,
		Created: j.created.Format(time.RFC3339),
	}
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339)
	}
	j.mu.Unlock()
	if st.State == StateRunning {
		st.Progress = j.Tracker.Progress()
	}
	return st
}
