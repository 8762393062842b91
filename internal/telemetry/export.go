package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// WriteChromeTrace exports events as Chrome trace-event JSON (the
// format Perfetto and about://tracing load). ts/dur are in the format's
// microsecond unit; one simulated cycle maps to one microsecond.
//
// Track layout: pid 0 / tid 0 carries the core's timeline — speculation
// episodes as B/E duration slices with the cache fills, flushes, probes
// and mispredicts that occur inside them nested by timestamp; pid 1
// carries one tid per scheduler task (B/E per pool task). Retirement
// events are omitted (one slice per instruction would drown the
// timeline; use WriteJSONL for the full stream). Squash events whose
// opening SpecEnter was already overwritten in the ring are dropped so
// the B/E stack stays balanced.
//
// Each trace event is appended into one reused scratch slice and written
// to a buffered writer, so the export allocates the writer's buffer and
// the scratch and nothing per event. The bytes are those encoding/json
// writes for the document {"traceEvents":[...],"displayTimeUnit":"ms"}:
// fields in declaration order, empty optional fields omitted, args keys
// sorted, and a final newline.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	scratch := make([]byte, 0, 256) // longer than any one trace event
	depth, sep := 0, false
	for _, ev := range events {
		b := scratch[:0]
		switch ev.Kind {
		case KindSpecEnter:
			depth++
			b = appendChromeHead(b, sep, "speculation", "spec", "B", ev.Cycle, 0, 0, 0)
			b = strconv.AppendUint(append(b, `,"args":{"deadline":`...), ev.Val, 10)
			b = append(appendHexArg(append(b, `,"pc":`...), ev.PC), "}}"...)
		case KindSpecSquash:
			if depth == 0 {
				continue
			}
			depth--
			b = appendChromeHead(b, sep, "speculation", "spec", "E", ev.Cycle, 0, 0, 0)
			b = append(strconv.AppendUint(append(b, `,"args":{"squashed":`...), ev.Val, 10), "}}"...)
		case KindCacheFill:
			name := "fill.L2"
			if ev.Level >= 3 {
				name = "fill.MEM"
			}
			b = appendChromeHead(b, sep, name, "cache", "X", ev.Cycle, ev.Val, 0, 0)
			b = append(appendHexArg(append(b, `,"args":{"addr":`...), ev.Addr), "}}"...)
		case KindCacheEvict, KindCacheFlush, KindBranchMispredict,
			KindRetPivot, KindStackSmash, KindCovertProbe, KindExec, KindRopPlan,
			KindSchedStall:
			b = appendChromeHead(b, sep, ev.Kind.String(), "event", "i", ev.Cycle, 0, 0, 0)
			b = appendHexArg(append(b, `,"s":"t","args":{"addr":`...), ev.Addr)
			b = appendHexArg(append(b, `,"pc":`...), ev.PC)
			b = append(strconv.AppendUint(append(b, `,"val":`...), ev.Val, 10), "}}"...)
		case KindTaskStart:
			b = append(appendChromeHead(b, sep, "task", "sched", "B", ev.Seq, 0, 1, ev.Addr), '}')
		case KindTaskStop:
			b = append(appendChromeHead(b, sep, "task", "sched", "E", ev.Seq, 0, 1, ev.Addr), '}')
		default:
			// Retirements (see above) and kinds out of range.
			continue
		}
		sep, scratch = true, b
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendChromeHead appends a trace event's fields up to its pid and
// tid, leaving the object open for "s" and "args": the leading comma
// when sep is set, then name, cat, ph, ts, dur when non-zero, pid and
// tid. name, cat and ph must need no JSON escaping.
func appendChromeHead(b []byte, sep bool, name, cat, ph string, ts, dur, pid, tid uint64) []byte {
	if sep {
		b = append(b, ',')
	}
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = strconv.AppendUint(append(b, `","ts":`...), ts, 10)
	if dur != 0 {
		b = strconv.AppendUint(append(b, `,"dur":`...), dur, 10)
	}
	b = strconv.AppendUint(append(b, `,"pid":`...), pid, 10)
	return strconv.AppendUint(append(b, `,"tid":`...), tid, 10)
}

// appendHexArg appends v as the JSON string fmt's %#x renders it.
func appendHexArg(b []byte, v uint64) []byte {
	b = strconv.AppendUint(append(b, `"0x`...), v, 16)
	return append(b, '"')
}

// jsonlEvent is the compact JSONL wire form of one event.
type jsonlEvent struct {
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Cycle uint64 `json:"cycle"`
	PC    uint64 `json:"pc,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
	Val   uint64 `json:"val,omitempty"`
	Level uint8  `json:"level,omitempty"`
}

// WriteJSONL exports every event (retirements included) as one JSON
// object per line — the machine-readable event log.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev.jsonl()); err != nil {
			return err
		}
	}
	return nil
}

// jsonl converts an event to its wire form.
func (ev Event) jsonl() jsonlEvent {
	return jsonlEvent{
		Seq: ev.Seq, Kind: ev.Kind.String(), Cycle: ev.Cycle,
		PC: ev.PC, Addr: ev.Addr, Val: ev.Val, Level: ev.Level,
	}
}

// MarshalJSONL renders one event as its JSONL wire form, without the
// trailing newline — the building block the obs /events stream shares
// with WriteJSONL.
func (ev Event) MarshalJSONL() ([]byte, error) {
	return json.Marshal(ev.jsonl())
}

// exportFile creates path (making parent directories) and streams the
// given exporter into it — the shared tail of every CLI's -trace /
// -trace-events flag.
func exportFile(path string, export func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChromeTraceFile writes a Chrome trace to path (parents created).
func WriteChromeTraceFile(path string, events []Event) error {
	return exportFile(path, func(w io.Writer) error { return WriteChromeTrace(w, events) })
}

// WriteJSONLFile writes a JSONL event log to path (parents created).
func WriteJSONLFile(path string, events []Event) error {
	return exportFile(path, func(w io.Writer) error { return WriteJSONL(w, events) })
}

// ReadJSONL parses a log written by WriteJSONL back into events
// (round-trip aid for tests and offline tooling).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var je jsonlEvent
		if err := dec.Decode(&je); err != nil {
			return nil, fmt.Errorf("telemetry: jsonl: %w", err)
		}
		k, ok := KindByName(je.Kind)
		if !ok {
			return nil, fmt.Errorf("telemetry: jsonl: unknown kind %q", je.Kind)
		}
		out = append(out, Event{
			Seq: je.Seq, Kind: k, Cycle: je.Cycle,
			PC: je.PC, Addr: je.Addr, Val: je.Val, Level: je.Level,
		})
	}
	return out, nil
}
