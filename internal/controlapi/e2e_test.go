// End-to-end lifecycle suite for the crspectred control API: a real
// controlapi.Server behind httptest, driven through the public client
// package — the same stack a production deployment runs minus the TCP
// listener. Everything here must stay clean under -race; the daemon is
// precisely the component whose bugs are interleavings.
package controlapi_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// newDaemon stands up a Server with the given concurrency limit behind
// httptest and returns a client wired to it. Cleanup closes the HTTP
// layer first, then cancels whatever jobs are still running.
func newDaemon(t *testing.T, maxJobs int) (*controlapi.Server, *client.Client) {
	t.Helper()
	srv, err := controlapi.New(controlapi.Options{
		DataDir: t.TempDir(),
		MaxJobs: maxJobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close() // terminal states close job streams, unblocking handlers
		ts.Close()
	})
	return srv, client.New(ts.URL)
}

// tinyFig4 is the CI-scale campaign spec every lifecycle test runs:
// sub-second on one core, yet through the full engine path.
func tinyFig4(id string, workers int) controlapi.JobSpec {
	return controlapi.JobSpec{
		ID: id, Kind: "fig4",
		Samples: 10, Attempts: 1, Seed: 7, Workers: workers,
	}
}

// slowAttack is a multi-second workload (about 3ms per rep, serialised
// by workers=1) for the cancel / queue / drain tests. Cancellation cuts
// in on rep granularity, so these tests stay fast on the happy path.
func slowAttack(id string) controlapi.JobSpec {
	return controlapi.JobSpec{
		ID: id, Kind: "attack",
		Reps: 20_000, Workers: 1, Seed: 3,
		Variant: "v1-bounds-check", Posture: "dep",
	}
}

// waitForState polls until the job reaches want (terminal or not).
func waitForState(t *testing.T, c *client.Client, id string, want controlapi.State) controlapi.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLifecycleEndToEnd is the happy path: submit → queued/running →
// events stream → done → artifact fetch, all through the client.
func TestLifecycleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real fig4 campaign; minutes under -race")
	}
	_, c := newDaemon(t, 2)
	ctx := context.Background()

	st, err := c.Submit(ctx, tinyFig4("e2e-fig4", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "e2e-fig4" {
		t.Fatalf("submit echoed ID %q, want the client-supplied one", st.ID)
	}
	if st.State != controlapi.StateQueued && st.State != controlapi.StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}

	// Stream events concurrently with the run; the reader must terminate
	// on its own once the job finishes (the done-bounded stream).
	events, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
	}
	kinds := make(chan map[string]int, 1)
	go func() {
		defer events.Close()
		seen := make(map[string]int)
		sc := bufio.NewScanner(events)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Errorf("bad event line %q: %v", sc.Text(), err)
				continue
			}
			seen[l.Kind]++
		}
		kinds <- seen
	}()

	final, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlapi.StateDone {
		t.Fatalf("job finished %q (err %q), want done", final.State, final.Error)
	}
	if final.Started == "" || final.Finished == "" {
		t.Errorf("terminal status missing timestamps: %+v", final)
	}

	select {
	case seen := <-kinds:
		if seen["task_start"] == 0 || seen["task_stop"] == 0 {
			t.Errorf("event stream missing scheduler lifecycle events: %v", seen)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not terminate after the job finished")
	}

	arts, err := c.Artifacts(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int64, len(arts))
	for _, a := range arts {
		names[a.Name] = a.Size
	}
	for _, want := range []string{"manifest.json", "fig4.csv", "job.log", "trace.json"} {
		if sz, ok := names[want]; !ok || sz == 0 {
			t.Errorf("artifact %s missing or empty (have %v)", want, names)
		}
	}
	if len(final.Artifacts) == 0 {
		t.Error("terminal status did not embed the artifact listing")
	}

	var buf bytes.Buffer
	if _, err := c.Fetch(ctx, st.ID, "manifest.json", &buf); err != nil {
		t.Fatal(err)
	}
	var m telemetry.Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Tool != "experiments" || m.Seed != 7 || len(m.Events) == 0 || len(m.Progress) == 0 {
		t.Errorf("manifest content off: tool=%q seed=%d events=%d progress=%d",
			m.Tool, m.Seed, len(m.Events), len(m.Progress))
	}
}

// TestManifestWorkerInvariance pins the tentpole's byte-identity
// contract: the manifest of a daemon job equals — after ZeroVolatile
// and the informational Workers field, the repo-wide convention — both
// a daemon run at a different worker count and a direct
// experiments.RunCampaign call (the cmd/experiments path).
func TestManifestWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three fig4 campaigns; minutes under -race")
	}
	_, c := newDaemon(t, 2)
	ctx := context.Background()

	normalize := func(raw []byte) []byte {
		var m telemetry.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("manifest: %v", err)
		}
		m.ZeroVolatile()
		m.Workers = 0
		out, err := m.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	daemonManifest := func(id string, workers int) []byte {
		if _, err := c.Submit(ctx, tinyFig4(id, workers)); err != nil {
			t.Fatal(err)
		}
		st, err := c.WaitDone(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != controlapi.StateDone {
			t.Fatalf("job %s finished %q: %s", id, st.State, st.Error)
		}
		var buf bytes.Buffer
		if _, err := c.Fetch(ctx, id, "manifest.json", &buf); err != nil {
			t.Fatal(err)
		}
		return normalize(buf.Bytes())
	}

	// The CLI path, inline: same engine entry point, same manifest flow
	// as cmd/experiments.
	cliManifest := func(workers int) []byte {
		cfg := experiments.DefaultConfig()
		cfg.SamplesPerClass = 10
		cfg.Attempts = 1
		cfg.Seed = 7
		cfg.Workers = workers
		cfg.Sinks = sched.NewSinks(nil, telemetry.KindRetire)
		start := time.Now()
		m := cfg.Manifest("experiments", nil)
		dir := t.TempDir()
		if err := experiments.RunCampaign(cfg, experiments.CampaignSpec{Fig4: true}, io.Discard, dir); err != nil {
			t.Fatal(err)
		}
		cfg.Finish(m, start)
		raw, err := m.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return normalize(raw)
	}

	w1 := daemonManifest("inv-w1", 1)
	w3 := daemonManifest("inv-w3", 3)
	cli := cliManifest(2)
	if !bytes.Equal(w1, w3) {
		t.Errorf("daemon manifests differ across worker counts:\n%s\n---\n%s", w1, w3)
	}
	if !bytes.Equal(w1, cli) {
		t.Errorf("daemon and CLI-path manifests differ:\n%s\n---\n%s", w1, cli)
	}

	// And the CSV series itself is identical, not just the provenance.
	csvAt := func(id string) []byte {
		var buf bytes.Buffer
		if _, err := c.Fetch(ctx, id, "fig4.csv", &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(csvAt("inv-w1"), csvAt("inv-w3")) {
		t.Error("fig4.csv differs across worker counts")
	}
}

// TestCancelMidRun cancels a running job and requires the terminal
// cancelled state, a flushed manifest, and a terminating event stream.
func TestCancelMidRun(t *testing.T) {
	srv, c := newDaemon(t, 2)
	ctx := context.Background()

	st, err := c.Submit(ctx, slowAttack("cancel-me"))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, st.ID, controlapi.StateRunning)

	events, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		defer events.Close()
		_, _ = io.Copy(io.Discard, events)
	}()

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != controlapi.StateCancelled {
		t.Fatalf("cancelled job finished %q, want cancelled", final.State)
	}

	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not terminate after cancellation")
	}

	// Even a cancelled job leaves a provenance record.
	mpath := filepath.Join(srv.DataDir(), st.ID, "manifest.json")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("cancelled job left no manifest: %v", err)
	}
	var m telemetry.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("cancelled job's manifest is malformed: %v", err)
	}
	if m.Tool != "crspectred" {
		t.Errorf("attack manifest tool %q, want crspectred", m.Tool)
	}
	// But no results artifact: the run did not complete.
	if _, err := os.Stat(filepath.Join(srv.DataDir(), st.ID, "attack.json")); err == nil {
		t.Error("cancelled job wrote attack.json")
	}
}

// TestQueueBeyondLimit submits past MaxJobs=1 and requires the overflow
// jobs to be observably queued, to cancel cleanly from the queue, and
// to run once the slot frees.
func TestQueueBeyondLimit(t *testing.T) {
	_, c := newDaemon(t, 1)
	ctx := context.Background()

	if _, err := c.Submit(ctx, slowAttack("q-hog")); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, "q-hog", controlapi.StateRunning)

	if _, err := c.Submit(ctx, tinyFig4("q-next", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, slowAttack("q-doomed")); err != nil {
		t.Fatal(err)
	}
	// With the only slot held, both stay queued — observable state, not
	// an implementation accident.
	for _, id := range []string{"q-next", "q-doomed"} {
		if st, err := c.Status(ctx, id); err != nil || st.State != controlapi.StateQueued {
			t.Fatalf("job %s: state %v err %v, want queued behind the limit", id, st.State, err)
		}
	}

	// Cancelling a queued job must not wait for a slot.
	if _, err := c.Cancel(ctx, "q-doomed"); err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitDone(ctx, "q-doomed")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != controlapi.StateCancelled || !strings.Contains(st.Error, "queued") {
		t.Errorf("queued cancel: state %q err %q, want cancelled while queued", st.State, st.Error)
	}

	// Free the slot; the queued job must run to completion.
	if _, err := c.Cancel(ctx, "q-hog"); err != nil {
		t.Fatal(err)
	}
	if st, err := c.WaitDone(ctx, "q-next"); err != nil || st.State != controlapi.StateDone {
		t.Fatalf("queued job after slot freed: state %v err %v, want done", st.State, err)
	}
}

// TestDrainWithInflight exercises the SIGTERM path: draining rejects
// new submissions with 503 while the in-flight job is seen through to a
// terminal state with its manifest flushed.
func TestDrainWithInflight(t *testing.T) {
	srv, c := newDaemon(t, 2)
	ctx := context.Background()

	if _, err := c.Submit(ctx, slowAttack("drain-victim")); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, "drain-victim", controlapi.StateRunning)

	// A short drain budget: the job cannot finish 20k reps in 150ms, so
	// drain must cancel it and still return promptly.
	dctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		srv.Drain(dctx)
		close(drained)
	}()

	// Draining daemons refuse work; raw HTTP, because the client would
	// treat the 503 as transient and ride it out.
	for {
		_, err := c.Status(ctx, "drain-victim")
		if err != nil {
			t.Fatal(err)
		}
		if srv.Draining() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	raw, err := http.Post(baseOf(t, c)+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fig4"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d, want 503", raw.StatusCode)
	}

	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain did not return after its budget expired")
	}
	st, err := c.Status(ctx, "drain-victim")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != controlapi.StateCancelled {
		t.Fatalf("in-flight job after over-budget drain: %q, want cancelled", st.State)
	}
	if _, err := os.Stat(filepath.Join(srv.DataDir(), "drain-victim", "manifest.json")); err != nil {
		t.Errorf("drained job left no manifest: %v", err)
	}
}

// TestCancelAndLookupErrors pins the error contract: unknown IDs 404,
// double-cancel and cancel-after-terminal 409 — through the client, so
// the *APIError surfacing is covered too.
func TestCancelAndLookupErrors(t *testing.T) {
	_, c := newDaemon(t, 2)
	ctx := context.Background()

	wantAPIErr := func(err error, code int, op string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != code {
			t.Fatalf("%s: got %v, want APIError %d", op, err, code)
		}
	}

	_, err := c.Cancel(ctx, "no-such-job")
	wantAPIErr(err, http.StatusNotFound, "cancel unknown")
	_, err = c.Status(ctx, "no-such-job")
	wantAPIErr(err, http.StatusNotFound, "status unknown")
	_, err = c.Events(ctx, "no-such-job")
	wantAPIErr(err, http.StatusNotFound, "events unknown")
	var sink bytes.Buffer
	_, err = c.Fetch(ctx, "no-such-job", "manifest.json", &sink)
	wantAPIErr(err, http.StatusNotFound, "fetch unknown")

	if _, err := c.Submit(ctx, slowAttack("err-double")); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, "err-double", controlapi.StateRunning)
	if _, err := c.Cancel(ctx, "err-double"); err != nil {
		t.Fatalf("first cancel: %v", err)
	}
	_, err = c.Cancel(ctx, "err-double")
	wantAPIErr(err, http.StatusConflict, "double cancel")
	if _, err := c.WaitDone(ctx, "err-double"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Cancel(ctx, "err-double")
	wantAPIErr(err, http.StatusConflict, "cancel terminal")

	// Path traversal in artifact names is a 400, not a file read.
	_, err = c.Fetch(ctx, "err-double", "..%2F..%2Fetc%2Fpasswd", &sink)
	wantAPIErr(err, http.StatusBadRequest, "traversal fetch")
}

// TestSubmitValidation: every malformed or out-of-domain payload is a
// 400 with no job spawned — the property FuzzJobSpecDecode generalises.
func TestSubmitValidation(t *testing.T) {
	_, c := newDaemon(t, 2)
	base := baseOf(t, c)

	bad := []string{
		``,                                    // empty
		`{`,                                   // truncated
		`[]`,                                  // wrong shape
		`{"kind":"fig9"}`,                     // unknown kind
		`{"kind":"attack","variant":"v99"}`,   // unknown variant
		`{"kind":"attack","posture":"magic"}`, // unknown posture
		`{"kind":"fig4","samples":-1}`,        // negative
		`{"kind":"fig4","workers":1000000}`,   // over cap
		`{"kind":"fig4","bogus":true}`,        // unknown field
		`{"kind":"fig4"}{"kind":"fig4"}`,      // trailing document
		`{"kind":"fig4","id":"../escape"}`,    // traversal ID
	}
	for _, payload := range bad {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: HTTP %d (%s), want 400", payload, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	// None of those may have spawned a job.
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []controlapi.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 0 {
		t.Errorf("rejected submissions spawned %d job(s)", len(listing.Jobs))
	}
}

// TestSubmitIdempotent: re-submitting an ID the daemon knows returns
// the existing job (HTTP 200 path) instead of spawning a duplicate.
func TestSubmitIdempotent(t *testing.T) {
	_, c := newDaemon(t, 1)
	ctx := context.Background()

	spec := slowAttack("dedupe-1")
	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("re-submission created a new job %q", second.ID)
	}
	resp, err := http.Get(baseOf(t, c) + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []controlapi.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 {
		t.Fatalf("dedupe failed: %d jobs after double submit", len(listing.Jobs))
	}
	if _, err := c.Cancel(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

// baseOf extracts the daemon base URL back out of a client (the tests
// occasionally need raw HTTP access to assert on status codes the
// client would wrap or retry).
func baseOf(t *testing.T, c *client.Client) string {
	t.Helper()
	return c.BaseURL()
}
