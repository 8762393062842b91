package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

func testHandler(t *testing.T) (http.Handler, *telemetry.Registry, *telemetry.Recorder, *sched.Tracker) {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	tr := sched.NewTracker(reg, rec, nil)
	return NewHandler(Options{
		Tool:     "obstest",
		RunID:    "testrun01",
		Registry: reg,
		Recorder: rec,
		Tracker:  tr,
	}), reg, rec, tr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

func TestHealthz(t *testing.T) {
	h, _, _, _ := testHandler(t)
	rr := get(t, h, "/healthz")
	if rr.Code != http.StatusOK || strings.TrimSpace(rr.Body.String()) != "ok" {
		t.Errorf("healthz: %d %q", rr.Code, rr.Body.String())
	}
}

func TestBuildz(t *testing.T) {
	h, _, _, _ := testHandler(t)
	rr := get(t, h, "/buildz")
	var doc map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("buildz not JSON: %v", err)
	}
	if doc["tool"] != "obstest" || doc["run_id"] != "testrun01" {
		t.Errorf("buildz identity wrong: %v", doc)
	}
	for _, key := range []string{"go_version", "pid", "uptime_sec", "num_cpu"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("buildz missing %q", key)
		}
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	h, reg, _, _ := testHandler(t)
	reg.Inc("sched.tasks_completed")
	reg.Inc("sched.tasks_completed")
	reg.Set("attack.leak_rate", 0.75)
	hist := reg.Histogram("blocks.size_instrs", false)
	hist.Observe(1)
	hist.Observe(3)
	hist.Observe(3)

	rr := get(t, h, "/metrics")
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"# TYPE sched_tasks_completed counter\nsched_tasks_completed 2\n",
		"# TYPE attack_leak_rate gauge\nattack_leak_rate 0.75\n",
		"# TYPE blocks_size_instrs histogram\n",
		`blocks_size_instrs_bucket{le="1"} 1`,
		`blocks_size_instrs_bucket{le="4"} 3`,
		`blocks_size_instrs_bucket{le="+Inf"} 3`,
		"blocks_size_instrs_sum 7",
		"blocks_size_instrs_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Cumulative bucket counts must be nondecreasing and end at _count.
	var last int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "blocks_size_instrs_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if n < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
}

func TestMetricsJSON(t *testing.T) {
	h, reg, _, _ := testHandler(t)
	reg.Inc("a.count")
	reg.Histogram("h.sizes", false).Observe(5)
	rr := get(t, h, "/metrics.json")
	var doc MetricsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if doc.RunID != "testrun01" || len(doc.Metrics) != 1 || !doc.Metrics[0].Counter {
		t.Errorf("snapshot wrong: %+v", doc)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Count != 1 {
		t.Errorf("histograms wrong: %+v", doc.Histograms)
	}
}

func TestProgress(t *testing.T) {
	h, _, _, tr := testHandler(t)
	ctx := sched.WithSinks(context.Background(), sched.Sinks{Pool: tr.Pool("unit")})
	if _, err := sched.Map(ctx, 2, 6, func(ctx context.Context, task int) (int, error) {
		sched.ObserveInstrs(ctx, 10)
		return task, nil
	}); err != nil {
		t.Fatal(err)
	}
	rr := get(t, h, "/progress")
	var doc ProgressDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("progress: %v", err)
	}
	if len(doc.Pools) != 1 || doc.Pools[0].Name != "unit" || doc.Pools[0].Done != 6 || doc.Pools[0].Instrs != 60 {
		t.Errorf("progress wrong: %+v", doc)
	}
}

func TestProgressWithoutTracker(t *testing.T) {
	h := NewHandler(Options{})
	rr := get(t, h, "/progress")
	var doc ProgressDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("progress: %v", err)
	}
	if doc.Pools == nil || len(doc.Pools) != 0 {
		t.Errorf("trackerless progress should be an empty list, got %+v", doc.Pools)
	}
}

func TestEventsBacklogAndLimit(t *testing.T) {
	h, _, rec, _ := testHandler(t)
	for i := 0; i < 10; i++ {
		rec.Emit(telemetry.Event{Kind: telemetry.KindExec, Val: uint64(i)})
	}
	rr := get(t, h, "/events?format=jsonl&backlog=100&limit=10")
	if rr.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rr.Code, rr.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rr.Body.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("streamed %d lines, want 10:\n%s", len(lines), rr.Body.String())
	}
	var ev struct {
		Kind string `json:"kind"`
		Val  uint64 `json:"val"`
	}
	if err := json.Unmarshal([]byte(lines[9]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != telemetry.KindExec.String() || ev.Val != 9 {
		t.Errorf("last event wrong: %+v", ev)
	}
}

func TestEventsKindFilter(t *testing.T) {
	h, _, rec, _ := testHandler(t)
	rec.Emit(telemetry.Event{Kind: telemetry.KindExec})
	rec.Emit(telemetry.Event{Kind: telemetry.KindCovertProbe})
	rec.Emit(telemetry.Event{Kind: telemetry.KindExec})
	name := telemetry.KindCovertProbe.String()
	rr := get(t, h, "/events?format=jsonl&backlog=100&limit=1&kinds="+name)
	lines := strings.Split(strings.TrimSpace(rr.Body.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], name) {
		t.Errorf("filtered stream wrong: %q", rr.Body.String())
	}
}

func TestEventsRejectsUnknownKind(t *testing.T) {
	h, _, _, _ := testHandler(t)
	if rr := get(t, h, "/events?kinds=nope"); rr.Code != http.StatusBadRequest {
		t.Errorf("unknown kind: %d", rr.Code)
	}
}

func TestEventsWithoutRecorderIs503(t *testing.T) {
	h := NewHandler(Options{})
	if rr := get(t, h, "/events"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("recorderless /events: %d", rr.Code)
	}
}

func TestEventsSSEFormatLive(t *testing.T) {
	// Exercise the real server path: events emitted after the stream
	// opens must arrive, framed as SSE.
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := Serve(ctx, "127.0.0.1:0", Options{Registry: reg, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		for i := 0; i < 50; i++ {
			rec.Emit(telemetry.Event{Kind: telemetry.KindRopPlan, Val: uint64(i)})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	resp, err := http.Get("http://" + srv.Addr() + "/events?limit=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var dataLines int
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			dataLines++
		}
	}
	if dataLines != 3 {
		t.Errorf("SSE stream delivered %d data frames, want 3", dataLines)
	}
}

func TestPprofIndex(t *testing.T) {
	h, _, _, _ := testHandler(t)
	rr := get(t, h, "/debug/pprof/")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "goroutine") {
		t.Errorf("pprof index: %d", rr.Code)
	}
}

func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := Serve(ctx, "127.0.0.1:0", Options{Tool: "lifecycle"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over TCP: %d", resp.StatusCode)
	}
	cancel() // context cancellation must stop the server
	deadline := time.After(5 * time.Second)
	for {
		if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("server still serving after context cancel")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
