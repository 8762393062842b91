package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates two Gaussian clusters, linearly separable when sep is
// large relative to the noise.
func blobs(n int, dim int, sep float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		y := i % 2
		row := make([]float64, dim)
		for j := range row {
			center := -sep / 2
			if y == 1 {
				center = sep / 2
			}
			row[j] = center + rng.NormFloat64()
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// xorSet is the classic nonlinear problem: linear models fail, an MLP
// must succeed.
func xorSet(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		row := []float64{float64(a) + rng.NormFloat64()*0.1, float64(b) + rng.NormFloat64()*0.1}
		d.X = append(d.X, row)
		d.Y = append(d.Y, a^b)
	}
	return d
}

func trainEval(t *testing.T, clf Classifier, d Dataset) float64 {
	t.Helper()
	train, test := d.Split(0.7, 11)
	var sc Scaler
	Xtr := sc.FitTransform(train.X)
	if err := clf.Fit(Xtr, train.Y); err != nil {
		t.Fatalf("%s fit: %v", clf.Name(), err)
	}
	return EvaluateAccuracy(clf, sc.Transform(test.X), test.Y)
}

func TestAllClassifiersSeparateBlobs(t *testing.T) {
	d := blobs(600, 4, 4, 3)
	for _, name := range ClassifierNames() {
		clf, ok := ByName(name, 7)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		if acc := trainEval(t, clf, d); acc < 0.95 {
			t.Errorf("%s accuracy on separable blobs = %.3f", name, acc)
		}
	}
}

func TestMLPSolvesXORLinearsDoNot(t *testing.T) {
	d := xorSet(800, 5)
	if acc := trainEval(t, NewDeepNN(1), d); acc < 0.95 {
		t.Errorf("deep NN accuracy on XOR = %.3f", acc)
	}
	if acc := trainEval(t, NewMLP(1), d); acc < 0.95 {
		t.Errorf("MLP accuracy on XOR = %.3f", acc)
	}
	if acc := trainEval(t, NewLogReg(1), d); acc > 0.8 {
		t.Errorf("logistic regression should fail XOR, got %.3f", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := blobs(200, 3, 3, 9)
	accs := map[string][]float64{}
	for run := 0; run < 2; run++ {
		for _, name := range ClassifierNames() {
			clf, _ := ByName(name, 42)
			accs[name] = append(accs[name], trainEval(t, clf, d))
		}
	}
	for name, a := range accs {
		if a[0] != a[1] {
			t.Errorf("%s not deterministic: %v vs %v", name, a[0], a[1])
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	for _, name := range ClassifierNames() {
		clf, _ := ByName(name, 1)
		if err := clf.Fit(nil, nil); err == nil {
			t.Errorf("%s accepted empty set", name)
		}
		if err := clf.Fit([][]float64{{1}, {2}}, []int{0}); err == nil {
			t.Errorf("%s accepted mismatched labels", name)
		}
		if err := clf.Fit([][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
			t.Errorf("%s accepted ragged rows", name)
		}
		if err := clf.Fit([][]float64{{1}}, []int{5}); err == nil {
			t.Errorf("%s accepted non-binary label", name)
		}
	}
	// A hidden width below 1 is an error, and the trained model stays.
	X, y := [][]float64{{-1}, {1}}, []int{0, 1}
	for _, hidden := range [][]int{{-1}, {0}, {8, 0}} {
		m := NewMLP(1)
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		before := m.Score(X[1])
		m.Hidden = hidden
		if err := m.Fit(X, y); err == nil {
			t.Errorf("mlp accepted hidden widths %v", hidden)
		}
		if got := m.Score(X[1]); got != before {
			t.Errorf("rejected fit with hidden widths %v changed the score from %v to %v", hidden, before, got)
		}
	}
}

func TestScalerProperties(t *testing.T) {
	d := blobs(300, 5, 2, 13)
	var sc Scaler
	X := sc.FitTransform(d.X)
	for j := 0; j < 5; j++ {
		var mean, varr float64
		for _, row := range X {
			mean += row[j]
		}
		mean /= float64(len(X))
		for _, row := range X {
			varr += (row[j] - mean) * (row[j] - mean)
		}
		varr /= float64(len(X))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d mean %v after scaling", j, mean)
		}
		if math.Abs(varr-1) > 1e-6 {
			t.Errorf("feature %d variance %v after scaling", j, varr)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	var sc Scaler
	X := sc.FitTransform([][]float64{{5, 1}, {5, 2}, {5, 3}})
	for _, row := range X {
		if math.IsNaN(row[0]) || math.IsInf(row[0], 0) {
			t.Fatal("constant feature produced NaN/Inf")
		}
	}
}

func TestSplitStratified(t *testing.T) {
	d := blobs(1000, 2, 1, 17)
	train, test := d.Split(0.7, 3)
	if train.Len()+test.Len() != d.Len() {
		t.Fatal("split lost rows")
	}
	tr, te := train.CountLabels(), test.CountLabels()
	if tr[0] != 350 || tr[1] != 350 {
		t.Errorf("train labels %v, want 350/350", tr)
	}
	if te[0] != 150 || te[1] != 150 {
		t.Errorf("test labels %v, want 150/150", te)
	}
}

// Property: split never duplicates or drops a row (checked via
// multiset of first features).
func TestQuickSplitPreservesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 20 + rng.Intn(100)
		d := blobs(n, 1, 2, rng.Int63())
		train, test := d.Split(0.7, rng.Int63())
		seen := map[float64]int{}
		for _, row := range d.X {
			seen[row[0]]++
		}
		for _, row := range train.X {
			seen[row[0]]--
		}
		for _, row := range test.X {
			seen[row[0]]--
		}
		for _, c := range seen {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1}
	truth := []int{1, 0, 0, 1, 1}
	if acc := Accuracy(pred, truth); acc != 0.6 {
		t.Errorf("accuracy = %v", acc)
	}
	c := Confuse(pred, truth)
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("confusion = %+v", c)
	}
	if p := c.Precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", r)
	}
	if f := c.F1(); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("f1 = %v", f)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty confusion metrics should be 0")
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 1}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 1 || d.Len() != 2 {
		t.Error("dims wrong")
	}
	c := d.Clone()
	c.X[0][0] = 99
	if d.X[0][0] == 99 {
		t.Error("clone aliases source")
	}
	d.Append(Dataset{X: [][]float64{{3}}, Y: []int{0}})
	if d.Len() != 3 {
		t.Error("append failed")
	}
	bad := Dataset{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 1}}
	if bad.Validate() == nil {
		t.Error("ragged dataset validated")
	}
	bad2 := Dataset{X: [][]float64{{1}}, Y: nil}
	if bad2.Validate() == nil {
		t.Error("mismatched labels validated")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	// Untrained models must not panic.
	m := &MLP{}
	if got := m.Predict([]float64{1, 2}); got != 0 {
		t.Errorf("untrained MLP predicted %d", got)
	}
	lr := &LogisticRegression{}
	_ = lr.Predict([]float64{1})
	svm := &LinearSVM{}
	_ = svm.Predict([]float64{1})
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("forest", 1); ok {
		t.Error("unknown classifier accepted")
	}
}

func TestAllClassifiersImplementScorer(t *testing.T) {
	for _, name := range ClassifierNames() {
		clf, _ := ByName(name, 1)
		if _, ok := clf.(Scorer); !ok {
			t.Errorf("%s does not implement Scorer", name)
		}
	}
}

func TestAUCKnownValues(t *testing.T) {
	// Perfect separation.
	if auc := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}); auc != 1 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Perfect inversion.
	if auc := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}); auc != 0 {
		t.Errorf("inverted AUC = %v", auc)
	}
	// All ties -> 0.5.
	if auc := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}); auc != 0.5 {
		t.Errorf("tied AUC = %v", auc)
	}
	// One class absent -> 0.5.
	if auc := AUC([]float64{0.1, 0.9}, []int{1, 1}); auc != 0.5 {
		t.Errorf("single-class AUC = %v", auc)
	}
	// Hand-computed mixed case: scores 1,2,3,4 labels 0,1,0,1 ->
	// pairs: (2>1)=1, (2<3)=0, (4>1)=1, (4>3)=1 -> 3/4.
	if auc := AUC([]float64{1, 2, 3, 4}, []int{0, 1, 0, 1}); auc != 0.75 {
		t.Errorf("mixed AUC = %v", auc)
	}
}

// Property: AUC is invariant under any strictly monotone transform of
// the scores.
func TestQuickAUCMonotoneInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		n := 10 + rng.Intn(50)
		scores := make([]float64, n)
		y := make([]int, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
			y[i] = rng.Intn(2)
		}
		a := AUC(scores, y)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(s)*3 + 1 // strictly increasing
		}
		b := AUC(warped, y)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScorersSeparateBlobsByAUC(t *testing.T) {
	d := blobs(400, 3, 4, 21)
	train, test := d.Split(0.7, 5)
	for _, name := range ClassifierNames() {
		clf, _ := ByName(name, 3)
		var sc Scaler
		if err := clf.Fit(sc.FitTransform(train.X), train.Y); err != nil {
			t.Fatal(err)
		}
		scorer := clf.(Scorer)
		auc := AUC(Scores(scorer, sc.Transform(test.X)), test.Y)
		if auc < 0.98 {
			t.Errorf("%s AUC on separable blobs = %.3f", name, auc)
		}
	}
}

func TestCrossValidateSeparable(t *testing.T) {
	d := blobs(400, 3, 5, 61)
	res, err := CrossValidate(func() Classifier { return NewLogReg(1) }, d, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracies) != 5 {
		t.Fatalf("folds = %d", len(res.FoldAccuracies))
	}
	if res.Mean < 0.95 {
		t.Errorf("cv mean %.3f on separable blobs", res.Mean)
	}
	if res.Std > 0.1 {
		t.Errorf("cv std %.3f too high", res.Std)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}

func TestCrossValidateFoldsArePartition(t *testing.T) {
	// Every row lands in exactly one test fold: total test rows across
	// folds equals the dataset size. Checked indirectly: accuracies
	// exist for all folds and errors propagate on bad input.
	d := blobs(101, 2, 4, 3)
	res, err := CrossValidate(func() Classifier { return NewSVM(2) }, d, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracies) != 4 {
		t.Errorf("folds = %d", len(res.FoldAccuracies))
	}
}

func TestCrossValidateRejectsBadInput(t *testing.T) {
	d := blobs(10, 2, 4, 3)
	if _, err := CrossValidate(func() Classifier { return NewLogReg(1) }, d, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := CrossValidate(func() Classifier { return NewLogReg(1) }, blobs(3, 1, 2, 1), 5, 1); err == nil {
		t.Error("k > n accepted")
	}
	bad := Dataset{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 1}}
	if _, err := CrossValidate(func() Classifier { return NewLogReg(1) }, bad, 2, 1); err == nil {
		t.Error("ragged dataset accepted")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d := blobs(120, 2, 4, 19)
	a, err := CrossValidate(func() Classifier { return NewMLP(7) }, d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(func() Classifier { return NewMLP(7) }, d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.FoldAccuracies {
		if a.FoldAccuracies[i] != b.FoldAccuracies[i] {
			t.Fatal("cv not deterministic under seed")
		}
	}
}
