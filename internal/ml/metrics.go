package ml

import "sort"

// Accuracy is the fraction of predictions matching labels.
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hit := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred))
}

// Confusion is a binary confusion matrix with class 1 as positive.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse tallies the binary confusion matrix.
func Confuse(pred, truth []int) Confusion {
	var c Confusion
	for i := range pred {
		switch {
		case truth[i] == 1 && pred[i] == 1:
			c.TP++
		case truth[i] == 1 && pred[i] != 1:
			c.FN++
		case truth[i] != 1 && pred[i] == 1:
			c.FP++
		default:
			c.TN++
		}
	}
	return c
}

// Precision is TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN), 0 when undefined — the detection rate on attack
// samples, which is what the attacker degrades.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// AUC computes the area under the ROC curve from decision scores and
// binary labels (probability a random attack sample outscores a random
// benign one; ties count half). Returns 0.5 when a class is absent.
func AUC(scores []float64, y []int) float64 {
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, len(scores))
	nPos, nNeg := 0, 0
	for i := range scores {
		ps[i] = pair{scores[i], y[i]}
		if y[i] == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Rank-sum (Mann-Whitney U) with midranks for ties.
	var rankSumPos float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of ranks i+1..j (1-based)
		for k := i; k < j; k++ {
			if ps[k].y == 1 {
				rankSumPos += midrank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// EvaluateAccuracy fits nothing: it runs clf over X and scores against y.
func EvaluateAccuracy(clf Classifier, X [][]float64, y []int) float64 {
	pred := make([]int, len(X))
	for i, row := range X {
		pred[i] = clf.Predict(row)
	}
	return Accuracy(pred, y)
}
