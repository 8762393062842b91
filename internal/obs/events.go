package obs

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// eventsPollInterval paces the ring-tail loop. 50ms keeps the stream
// feeling live without measurable load on the recorder's mutex.
const eventsPollInterval = 50 * time.Millisecond

// events streams telemetry events as they land in the recorder ring.
//
// Query parameters:
//
//	kinds=exec,cache_miss   only these event kinds (names per Kind.String);
//	                        unknown names are a 400. Default: all kinds.
//	backlog=N               start N events back in the ring (clamped to
//	                        what the ring still retains). Default 0: tail
//	                        from now.
//	limit=N                 close the stream after N events. Default 0:
//	                        stream until the client disconnects.
//	format=jsonl|sse        plain JSON-lines or Server-Sent Events.
//	                        Default sse; an Accept header containing
//	                        application/x-ndjson also selects jsonl.
//
// Ring wraparound during a slow consume is not an error: the stream
// silently resumes at the oldest retained event (the Seq field exposes
// the gap to clients that care).
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	ServeEventStream(w, r, h.opts.Telemetry, nil)
}

// ServeEventStream tails rec's ring to w, honouring the /events query
// parameters documented on the handler above. It is shared between the
// obs server's /events endpoint and the control API's per-job
// /jobs/{id}/events endpoint. done, when non-nil, bounds the stream's
// lifetime: once it is closed the remaining ring contents are drained
// and the response ends — the job-stream case, where a finished job
// must terminate its consumers rather than leave them polling an idle
// ring forever. A nil done streams until the client disconnects (or
// limit is reached), the live-server case.
func ServeEventStream(w http.ResponseWriter, r *http.Request, rec *telemetry.Recorder, done <-chan struct{}) {
	if rec == nil {
		http.Error(w, "obs: no telemetry recorder attached; /events is unavailable", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()

	var mask [telemetry.NumKinds]bool
	filtered := false
	if raw := q.Get("kinds"); raw != "" {
		filtered = true
		for _, name := range strings.Split(raw, ",") {
			k, ok := telemetry.KindByName(strings.TrimSpace(name))
			if !ok {
				http.Error(w, fmt.Sprintf("obs: unknown event kind %q", name), http.StatusBadRequest)
				return
			}
			mask[k] = true
		}
	}
	limit, err := uintParam(q.Get("limit"), 0)
	if err != nil {
		http.Error(w, "obs: bad limit: "+err.Error(), http.StatusBadRequest)
		return
	}
	backlog, err := uintParam(q.Get("backlog"), 0)
	if err != nil {
		http.Error(w, "obs: bad backlog: "+err.Error(), http.StatusBadRequest)
		return
	}
	jsonl := q.Get("format") == "jsonl" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if q.Get("format") == "sse" {
		jsonl = false
	}

	flusher, _ := w.(http.Flusher)
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)

	// A cursor past the end clamps to "now"; back off by the requested
	// backlog (EventsSince re-clamps to the oldest retained event).
	_, cursor := rec.EventsSince(math.MaxUint64)
	if backlog > 0 {
		if cursor > backlog {
			cursor -= backlog
		} else {
			cursor = 0
		}
	}

	var sent uint64
	finishing := false
	tick := time.NewTicker(eventsPollInterval)
	defer tick.Stop()
	for {
		evs, next := rec.EventsSince(cursor)
		cursor = next
		for _, ev := range evs {
			if filtered && !mask[ev.Kind] {
				continue
			}
			line, err := ev.MarshalJSONL()
			if err != nil {
				continue
			}
			if jsonl {
				fmt.Fprintf(w, "%s\n", line)
			} else {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, line)
			}
			sent++
			if limit > 0 && sent >= limit {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		// Every emission into the ring happens-before done closes, so once
		// finishing is observed, one empty EventsSince batch proves the
		// ring is fully drained.
		if finishing {
			if len(evs) == 0 {
				return
			}
			continue
		}
		if done != nil {
			select {
			case <-done:
				finishing = true
				continue // drain without waiting out a tick
			default:
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func uintParam(raw string, def uint64) (uint64, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.ParseUint(raw, 10, 64)
}
