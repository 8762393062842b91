package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// TestRegisterSharedMux is the double-registration regression: the
// crspectred daemon mounts the obs surface onto its own mux, and a
// second mount (or a pre-existing handler on one of the obs patterns)
// used to panic ServeMux with a duplicate-pattern registration.
// Register must skip patterns the mux already serves — first handler
// wins — and never panic.
func TestRegisterSharedMux(t *testing.T) {
	mux := http.NewServeMux()
	// The daemon's own routes, including one squatting on an obs pattern.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "custom metrics handler")
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {})

	reg := telemetry.NewRegistry()
	reg.Inc("obs.test.counter")
	opts := Options{Tool: "register-test", Sinks: sched.Sinks{Metrics: reg}}
	Register(mux, opts)
	Register(mux, opts) // the regression: this used to panic

	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// The pre-registered handler won; obs did not displace it.
	if code, body := get("/metrics"); code != http.StatusOK || body != "custom metrics handler" {
		t.Errorf("/metrics: %d %q, want the pre-registered handler", code, body)
	}
	// The obs endpoints the mux had free are all live.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, body := get("/buildz"); code != http.StatusOK || !strings.Contains(body, "register-test") {
		t.Errorf("/buildz: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != http.StatusOK || !strings.Contains(body, "obs.test.counter") {
		t.Errorf("/metrics.json: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
}

// TestNewHandlerStandalone pins that the non-shared path (every CLI's
// -obs flag) still serves the full surface after the Register refactor.
func TestNewHandlerStandalone(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Set("gauge.x", 42)
	ts := httptest.NewServer(NewHandler(Options{Tool: "standalone", Sinks: sched.Sinks{Metrics: reg}}))
	defer ts.Close()
	for _, path := range []string{"/healthz", "/buildz", "/metrics", "/metrics.json", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
}
