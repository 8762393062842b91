package hid

import (
	"testing"

	"repro/internal/ml"
)

// Behavioral coverage for the detector edges the golden-path tests skip:
// the ROC/AUC view, untrained fail-safe behavior, and committee edge
// cases under member failure and empty inputs.

// notAScorer wraps a classifier and hides its Score method, modelling a
// family (e.g. a tree) with no calibrated decision value.
type notAScorer struct{ inner ml.Classifier }

func (n notAScorer) Name() string                     { return "opaque" }
func (n notAScorer) Fit(X [][]float64, y []int) error { return n.inner.Fit(X, y) }
func (n notAScorer) Predict(x []float64) int          { return n.inner.Predict(x) }

// TestAUCSeparatesClasses: on a well-separated dataset a trained scorer
// must push AUC close to 1, far above chance, and the AUC must beat the
// same detector's evaluation on an inseparable (label-shuffled) set.
func TestAUCSeparatesClasses(t *testing.T) {
	train := twoClass(400, 6, 1)
	test := twoClass(200, 6, 99)
	d := New(ml.NewLogReg(1))
	if err := d.Train(train); err != nil {
		t.Fatal(err)
	}
	auc := d.AUC(test)
	if auc < 0.95 {
		t.Fatalf("AUC on separable data = %.3f, want >= 0.95", auc)
	}
	// Inseparable: same features, labels independent of position.
	garbled := test.Clone()
	for i := range garbled.Y {
		garbled.Y[i] = i % 2
	}
	garbled.Shuffle(3)
	if g := d.AUC(garbled); g > 0.75 {
		t.Fatalf("AUC on label-shuffled data = %.3f, want near chance", g)
	}
}

// TestAUCFallsBackToChance: detectors without scores, or not yet
// trained, must report exactly chance rather than fabricate a curve.
func TestAUCFallsBackToChance(t *testing.T) {
	ds := twoClass(100, 6, 5)
	opaque := New(notAScorer{inner: ml.NewLogReg(1)})
	if err := opaque.Train(ds); err != nil {
		t.Fatal(err)
	}
	if auc := opaque.AUC(ds); auc != 0.5 {
		t.Fatalf("non-scorer AUC = %v, want 0.5", auc)
	}
	untrained := New(ml.NewLogReg(1))
	if auc := untrained.AUC(ds); auc != 0.5 {
		t.Fatalf("untrained AUC = %v, want 0.5", auc)
	}
}

// TestUntrainedDetectorFailsBenign: before training, Predict must return
// the benign label and Accuracy zero — an unfitted HID must not page.
func TestUntrainedDetectorFailsBenign(t *testing.T) {
	d := New(ml.NewSVM(1))
	if got := d.Predict([]float64{100, 100}); got != 0 {
		t.Fatalf("untrained Predict = %d, want benign 0", got)
	}
	if acc := d.Accuracy(twoClass(50, 6, 2)); acc != 0 {
		t.Fatalf("untrained Accuracy = %v, want 0", acc)
	}
	if acc := New(ml.NewSVM(1)).Accuracy(ml.Dataset{}); acc != 0 {
		t.Fatalf("empty-set Accuracy = %v, want 0", acc)
	}
}

// TestTrainRejectsEmptyAndInvalid: Train must refuse datasets the
// classifier cannot be fitted on, and stay untrained afterwards.
func TestTrainRejectsEmptyAndInvalid(t *testing.T) {
	d := New(ml.NewLogReg(1))
	if err := d.Train(ml.Dataset{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := ml.Dataset{X: [][]float64{{1, 2}}, Y: []int{0, 1}} // ragged
	if err := d.Train(bad); err == nil {
		t.Fatal("invalid dataset accepted")
	}
	if d.trained {
		t.Fatal("detector claims trained after failed Train")
	}
}

// TestEnsembleMemberFailurePropagates: one member failing to fit must
// fail the committee's Train.
func TestEnsembleMemberFailurePropagates(t *testing.T) {
	e := NewEnsemble(ml.NewLogReg(1), ml.NewSVM(2))
	if err := e.Train(ml.Dataset{}); err == nil {
		t.Fatal("ensemble trained on an empty dataset")
	}
	if acc := e.Accuracy(ml.Dataset{}); acc != 0 {
		t.Fatalf("ensemble empty-set Accuracy = %v, want 0", acc)
	}
}

// TestWindowedTrainTrimsOversizedSeed: seeding a windowed detector with
// a corpus larger than its window must keep only the newest traces.
func TestWindowedTrainTrimsOversizedSeed(t *testing.T) {
	w := NewWindowed(ml.NewLogReg(1), 60)
	if err := w.Train(twoClass(200, 6, 7)); err != nil {
		t.Fatal(err)
	}
	if n := w.CorpusSize(); n != 60 {
		t.Fatalf("corpus after oversized seed = %d, want 60", n)
	}
}
