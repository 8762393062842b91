// Package ml is a small, dependency-free machine-learning library
// implementing the four classifier families the paper's HIDs use
// (§III-A): an sklearn-style MLP (3 layers), a deeper 6-layer ReLU
// network, logistic regression, and a linear SVM — plus the supporting
// pieces (standardisation, stratified train/test split, accuracy and
// confusion metrics). Everything is deterministic under an explicit
// seed.
package ml

import (
	"fmt"
	"math/rand"
)

// Dataset is a labelled feature matrix. Labels are small non-negative
// ints; the HID uses 0 = benign, 1 = attack.
type Dataset struct {
	X [][]float64
	Y []int
}

// Len returns the number of rows.
func (d Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimensionality (0 when empty).
func (d Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks rectangular shape and matching labels.
func (d Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	dim := d.Dim()
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	return nil
}

// Append adds rows from other (no copy of rows).
func (d *Dataset) Append(other Dataset) {
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
}

// Clone deep-copies the dataset.
func (d Dataset) Clone() Dataset {
	X := make([][]float64, len(d.X))
	for i, row := range d.X {
		X[i] = append([]float64(nil), row...)
	}
	return Dataset{X: X, Y: append([]int(nil), d.Y...)}
}

// Shuffle permutes rows in place with the given seed.
func (d Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split divides the dataset into train and test partitions with the
// given train fraction (the paper uses 70/30), stratified per class so
// both partitions keep the class balance.
func (d Dataset) Split(trainFrac float64, seed int64) (train, test Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.7
	}
	byClass := map[int][]int{}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	rng := rand.New(rand.NewSource(seed))
	// Deterministic class order.
	classes := []int{}
	for c := range byClass {
		classes = append(classes, c)
	}
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(float64(len(idx)) * trainFrac)
		for k, i := range idx {
			if k < cut {
				train.X = append(train.X, d.X[i])
				train.Y = append(train.Y, d.Y[i])
			} else {
				test.X = append(test.X, d.X[i])
				test.Y = append(test.Y, d.Y[i])
			}
		}
	}
	train.Shuffle(seed + 1)
	test.Shuffle(seed + 2)
	return train, test
}
