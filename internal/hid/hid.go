// Package hid implements the hardware-assisted intrusion detection
// systems of the paper (§II-D, §III): ML classifiers over HPC feature
// vectors, in both an offline flavour ("a static type that does not
// retrain itself during runtime", like CloudRadar [22]) and an online
// flavour that is "retrained during runtime on newer traces".
package hid

import (
	"fmt"

	"repro/internal/ml"
)

// Thresholds from the paper's §II-E attack loop.
const (
	// EvadeThreshold: "For the attack to evade the HID detector, we
	// consider accuracy of 55% or less."
	EvadeThreshold = 0.55
	// DetectThreshold: "If the HID detects the attack with high
	// accuracy (>80%), we consider that the attack was detected" — the
	// trigger for mutating the perturbation parameters.
	DetectThreshold = 0.80
)

// Detector is an offline (train-once) HID: a classifier behind a
// standardising scaler.
type Detector struct {
	clf     ml.Classifier
	scaler  ml.Scaler
	trained bool
}

// New wraps a classifier as an offline detector.
func New(clf ml.Classifier) *Detector {
	return &Detector{clf: clf}
}

// Name returns the underlying classifier family name.
func (d *Detector) Name() string { return d.clf.Name() }

// Trained reports whether Train has succeeded.
func (d *Detector) Trained() bool { return d.trained }

// Train fits the scaler and classifier on the labelled dataset.
func (d *Detector) Train(ds ml.Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if ds.Len() == 0 {
		return fmt.Errorf("hid: empty training set")
	}
	X := d.scaler.FitTransform(ds.X)
	if err := d.clf.Fit(X, ds.Y); err != nil {
		return err
	}
	d.trained = true
	return nil
}

// Predict classifies one raw (unscaled) HPC vector.
func (d *Detector) Predict(x []float64) int {
	if !d.trained {
		return 0
	}
	return d.clf.Predict(d.scaler.TransformRow(x))
}

// Accuracy scores the detector on a raw labelled dataset — the metric
// every figure in the paper plots.
func (d *Detector) Accuracy(ds ml.Dataset) float64 {
	if !d.trained || ds.Len() == 0 {
		return 0
	}
	pred := make([]int, ds.Len())
	for i, row := range ds.X {
		pred[i] = d.Predict(row)
	}
	return ml.Accuracy(pred, ds.Y)
}

// AUC computes the area under the ROC curve on a raw dataset when the
// underlying classifier exposes decision scores; it returns 0.5
// otherwise (chance).
func (d *Detector) AUC(ds ml.Dataset) float64 {
	s, ok := d.clf.(ml.Scorer)
	if !ok || !d.trained {
		return 0.5
	}
	scores := make([]float64, ds.Len())
	for i, row := range ds.X {
		scores[i] = s.Score(d.scaler.TransformRow(row))
	}
	return ml.AUC(scores, ds.Y)
}

// Confusion computes the binary confusion matrix on a raw dataset.
func (d *Detector) Confusion(ds ml.Dataset) ml.Confusion {
	pred := make([]int, ds.Len())
	for i, row := range ds.X {
		pred[i] = d.Predict(row)
	}
	return ml.Confuse(pred, ds.Y)
}

// Online is the retraining HID: it accumulates every observed trace into
// its training corpus and refits after each observation round. A
// windowed Online (NewWindowed) bounds that corpus: once it exceeds the
// window, the oldest traces are evicted before retraining. Real
// deployments bound memory and adapt to workload drift this way — at the
// price of *forgetting*, which an attacker can exploit by recycling a
// variant the detector once knew (see the variant-recycling experiment).
type Online struct {
	Detector
	window int // most traces kept; 0 keeps every trace
	corpus ml.Dataset
}

// NewOnline wraps a classifier as an online (retraining) detector.
func NewOnline(clf ml.Classifier) *Online {
	return &Online{Detector: Detector{clf: clf}}
}

// NewWindowed wraps a classifier as a sliding-window online detector
// keeping at most window traces (at least 1).
func NewWindowed(clf ml.Classifier, window int) *Online {
	if window < 1 {
		window = 1
	}
	return &Online{Detector: Detector{clf: clf}, window: window}
}

// Train sets the initial corpus (trimmed to the window) and fits.
func (o *Online) Train(ds ml.Dataset) error {
	o.corpus = ds.Clone()
	return o.refit()
}

// Observe augments the corpus with newly profiled (labelled) traces and
// retrains — the paper's "retrained on the augmented dataset" loop.
func (o *Online) Observe(ds ml.Dataset) error {
	o.corpus.Append(ds.Clone())
	return o.refit()
}

// refit evicts the traces beyond the window and retrains on the rest.
func (o *Online) refit() error {
	if n := o.corpus.Len(); o.window > 0 && n > o.window {
		o.corpus.X = o.corpus.X[n-o.window:]
		o.corpus.Y = o.corpus.Y[n-o.window:]
	}
	return o.Detector.Train(o.corpus)
}

// CorpusSize returns the number of traces the online HID retains.
func (o *Online) CorpusSize() int { return o.corpus.Len() }

// Ensemble is a majority-vote committee of detectors — the natural
// defender-side hardening against a single-model evasion: the attacker
// must now sit on the benign side of every member's boundary at once.
type Ensemble struct {
	members []*Detector
}

// NewEnsemble builds a committee from classifier instances.
func NewEnsemble(clfs ...ml.Classifier) *Ensemble {
	e := &Ensemble{}
	for _, c := range clfs {
		e.members = append(e.members, New(c))
	}
	return e
}

// Name identifies the committee.
func (e *Ensemble) Name() string { return "ensemble" }

// Train fits every member on the same dataset.
func (e *Ensemble) Train(ds ml.Dataset) error {
	if len(e.members) == 0 {
		return fmt.Errorf("hid: empty ensemble")
	}
	for _, m := range e.members {
		if err := m.Train(ds); err != nil {
			return err
		}
	}
	return nil
}

// Predict majority-votes the members (ties break toward attack: a
// suspicious detector pages the analyst).
func (e *Ensemble) Predict(x []float64) int {
	votes := 0
	for _, m := range e.members {
		votes += m.Predict(x)
	}
	if 2*votes >= len(e.members) {
		return 1
	}
	return 0
}

// Accuracy scores the committee on a raw labelled dataset.
func (e *Ensemble) Accuracy(ds ml.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	pred := make([]int, ds.Len())
	for i, row := range ds.X {
		pred[i] = e.Predict(row)
	}
	return ml.Accuracy(pred, ds.Y)
}

// Verdict classifies an accuracy measurement per the paper's thresholds.
type Verdict string

// Verdict values.
const (
	VerdictEvaded    Verdict = "evaded"   // accuracy <= 55%
	VerdictDetected  Verdict = "detected" // accuracy > 80%
	VerdictContested Verdict = "contested"
)

// Judge maps an accuracy to the paper's three-way outcome.
func Judge(accuracy float64) Verdict {
	switch {
	case accuracy <= EvadeThreshold:
		return VerdictEvaded
	case accuracy > DetectThreshold:
		return VerdictDetected
	default:
		return VerdictContested
	}
}
