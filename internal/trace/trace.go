// Package trace manages labelled HPC trace sets: the bridge between the
// PMU sampler and the ML pipeline. It also carries the measurement-noise
// model — the paper profiles on a live Ubuntu desktop where "noise is
// caused by other applications and the operating system running in the
// background"; we model that as seeded multiplicative Gaussian jitter on
// each sampled vector.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/ml"
	"repro/internal/pmu"
)

// Labels for the two HID classes.
const (
	LabelBenign = 0
	LabelAttack = 1
)

// Set is a labelled collection of HPC samples with per-record app
// provenance.
type Set struct {
	Events []pmu.Event
	Apps   []string
	Data   ml.Dataset
}

// NewSet creates an empty set over the given event list.
func NewSet(events []pmu.Event) *Set {
	return &Set{Events: append([]pmu.Event(nil), events...)}
}

// Len returns the number of records.
func (s *Set) Len() int { return s.Data.Len() }

// Add appends samples from one application run under the given label.
func (s *Set) Add(app string, label int, samples []pmu.Sample) {
	for _, smp := range samples {
		s.Apps = append(s.Apps, app)
		s.Data.X = append(s.Data.X, append([]float64(nil), smp...))
		s.Data.Y = append(s.Data.Y, label)
	}
}

// noiseRands pools AddNoisy's generators. Seed restarts a generator on
// exactly the stream rand.New(rand.NewSource(seed)) yields, so a call
// that reseeds the one it takes draws what a new one would, without
// allocating a source's state per call.
var noiseRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// AddNoisy appends samples with multiplicative Gaussian jitter of the
// given relative sigma (the system-noise model), seeded by seed. Each
// jittered row is written into the row of X's spare capacity it lands
// on when that row has room, as pmu.Sampler.AppendRun does, so a set
// emptied to length zero and refilled run after run reuses its rows;
// rows past X's length are therefore the set's to overwrite.
func (s *Set) AddNoisy(app string, label int, samples []pmu.Sample, sigma float64, seed int64) {
	rng := noiseRands.Get().(*rand.Rand)
	rng.Seed(seed)
	for _, smp := range samples {
		var row []float64
		if n := len(s.Data.X); n < cap(s.Data.X) {
			row = s.Data.X[:n+1][n]
		}
		if cap(row) < len(smp) {
			row = make([]float64, len(smp))
		}
		row = row[:len(smp)]
		for j, v := range smp {
			row[j] = v * (1 + sigma*rng.NormFloat64())
		}
		s.Apps = append(s.Apps, app)
		s.Data.X = append(s.Data.X, row)
		s.Data.Y = append(s.Data.Y, label)
	}
	noiseRands.Put(rng)
}

// Merge appends every record of other (events must match).
func (s *Set) Merge(other *Set) error {
	if len(s.Events) != len(other.Events) {
		return fmt.Errorf("trace: merging sets with %d vs %d events", len(s.Events), len(other.Events))
	}
	for i, e := range s.Events {
		if other.Events[i] != e {
			return fmt.Errorf("trace: event mismatch at %d: %s vs %s", i, e, other.Events[i])
		}
	}
	s.Apps = append(s.Apps, other.Apps...)
	s.Data.Append(other.Data)
	return nil
}

// Project returns a view of the set restricted to the first n feature
// columns. Because the PMU's priority ordering is a prefix (monitoring n
// features means monitoring AllEvents()[:n]), one full-width corpus
// serves every feature size in the Fig. 4 sweep. Rows are copied;
// mutating the projection does not affect the source.
func (s *Set) Project(n int) *Set {
	if n >= len(s.Events) {
		n = len(s.Events)
	}
	out := NewSet(s.Events[:n])
	out.Apps = append(out.Apps, s.Apps...)
	for i := range s.Data.X {
		out.Data.X = append(out.Data.X, append([]float64(nil), s.Data.X[i][:n]...))
		out.Data.Y = append(out.Data.Y, s.Data.Y[i])
	}
	return out
}

// WriteCSV serialises the set: header "app,label,<event names...>", one
// row per record.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"app", "label"}
	for _, e := range s.Events {
		header = append(header, e.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range s.Data.X {
		row := []string{s.Apps[i], strconv.Itoa(s.Data.Y[i])}
		for _, v := range s.Data.X[i] {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a set written by WriteCSV. Event names must match the
// pmu catalogue.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < 3 || header[0] != "app" || header[1] != "label" {
		return nil, fmt.Errorf("trace: bad header %v", header)
	}
	byName := map[string]pmu.Event{}
	for _, e := range pmu.AllEvents() {
		byName[e.String()] = e
	}
	s := &Set{}
	for _, name := range header[2:] {
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("trace: unknown event %q", name)
		}
		s.Events = append(s.Events, e)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("trace: row has %d fields, want %d", len(rec), len(header))
		}
		label, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: bad label %q", rec[1])
		}
		row := make([]float64, len(rec)-2)
		for j, f := range rec[2:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad value %q", f)
			}
			row[j] = v
		}
		s.Apps = append(s.Apps, rec[0])
		s.Data.X = append(s.Data.X, row)
		s.Data.Y = append(s.Data.Y, label)
	}
}
