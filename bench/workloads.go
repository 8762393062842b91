package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// why records what the workload exercises that the others do not.
	why string
	// loops is the number of concurrent closed-loop clients: each issues
	// its next op only when the previous one returned.
	loops int
	// cycle is the op mix period of one loop: a loop stops only after a
	// whole number of cycles, so every run does the same mix of ops.
	cycle int
	// minOps is the number of ops each loop runs even past the clock, so
	// that the output pins are always checked.
	minOps int
	// setup builds the workload's inputs from the seed and checks them;
	// tiny selects the sizes the smoke tests use, and dir is an empty
	// directory the instance may write to until it is closed.
	setup func(seed int64, tiny bool, dir string) (instance, error)
}

// instance is a workload set up for one seed.
type instance interface {
	// op runs op k of closed loop `loop`. With tr nil it calls the
	// program the way its own tools do; otherwise it runs the traced
	// replica under tr, and ctx carries the op's root span.
	op(ctx context.Context, loop, k int, tr *tracer) error
	// probe runs once before a traced run's ops and takes the baselines
	// some per-layer ratios need.
	probe(ctx context.Context, tr *tracer) error
	// finish checks what needs every op (the pins) and returns lines on
	// fidelity and outputs for the report.
	finish() ([]string, error)
	close()
}

// noProbe is embedded by instances whose per-layer metrics need no
// baseline run.
type noProbe struct{}

func (noProbe) probe(context.Context, *tracer) error { return nil }

// The engine's fan-out width and the daemon's client count, sized for a
// two-core host.
const (
	engineWorkers = 2
	daemonClients = 2
)

var workloads = []workload{table1Workload, fig6Workload, difftestWorkload, scanWorkload, daemonWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pinsJSON holds the output digests of seeds 1 and 2 for every workload.
//
//go:embed pins.json
var pinsJSON []byte

func pinFor(workload string, seed int64) (string, bool) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic(fmt.Sprintf("bench: pins.json: %v", err)) // embedded at build time
	}
	d, ok := pins[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputCheck holds a reference output per input key and checks every op
// against it: the first output of a key becomes its reference, so every
// later op — traced replicas included — must reproduce it exactly. The
// key "" names the single output of a workload whose ops all repeat one
// input; with pinned set, its reference is the pin of the seed, if any.
type outputCheck struct {
	workload string
	seed     int64
	pinned   bool

	mu  sync.Mutex
	ref map[string]string
}

func newOutputCheck(workload string, seed int64, pinned bool) *outputCheck {
	c := &outputCheck{workload: workload, seed: seed, pinned: pinned, ref: map[string]string{}}
	if pin, ok := pinFor(workload, seed); ok && pinned {
		c.ref[""] = pin
	}
	return c
}

func (c *outputCheck) check(key string, out []byte) error {
	d := digest(out)
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.ref[key]
	if !ok {
		c.ref[key] = d
		return nil
	}
	if d != ref {
		return fmt.Errorf("%s seed %d: output %q digest %s, want %s", c.workload, c.seed, key, d, ref)
	}
	return nil
}

// summary digests every key's reference output (one "key digest" line
// per key, sorted) and reports how many keys there are.
func (c *outputCheck) summary() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.ref))
	for k := range c.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, c.ref[k])
	}
	return digest([]byte(b.String())), len(keys)
}

// single reports the reference of the key "".
func (c *outputCheck) single() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.ref[""]
	if !ok {
		return "no output checked"
	}
	if _, pinned := pinFor(c.workload, c.seed); pinned && c.pinned {
		return fmt.Sprintf("output digest %s, the pin for seed %d", d, c.seed)
	}
	return fmt.Sprintf("output digest %s (seed %d not pinned; self-checks only)", d, c.seed)
}

// pinLine reports the digest of a whole output set against the pin.
func pinLine(workload string, seed int64, d string) (string, error) {
	pin, ok := pinFor(workload, seed)
	switch {
	case !ok:
		return fmt.Sprintf("output digest %s (seed %d not pinned; self-checks only)", d, seed), nil
	case pin != d:
		return "", fmt.Errorf("%s seed %d: output digest %s, pinned %s", workload, seed, d, pin)
	}
	return fmt.Sprintf("output digest %s matches the pin for seed %d", d, seed), nil
}
