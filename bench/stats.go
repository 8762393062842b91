package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads computed here and by the driver agree. With fewer than two
// values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentile applies the reporting rule for timings: the highest
// percentile (from a fixed ladder) that still has at least ten samples
// strictly beyond it under the nearest-rank definition. ok is false when
// no percentile qualifies — fewer than 20 samples — in which case only
// the median is meaningful.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9991
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// verdict is the outcome of comparing one metric on one workload between
// a parent commit and a change.
type verdict string

const (
	verdictGain       verdict = "gain"
	verdictRegression verdict = "regression"
	verdictUnresolved verdict = "unresolved"
	verdictSame       verdict = "within bound"
)

// comparison is one row of the compare report.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	pairs, wins, losses, ties     int
	worse                         float64 // change median worse than parent's, as a share of it (negative = better)
	verdict                       verdict
}

// compareRuns implements the acceptance rule for one metric. Runs pair up
// in order (parent[i] with change[i]); a tie counts for neither side but
// stays in the pair count. A gain needs the change to win at least nine
// tenths of all pairs and the medians to differ, in the change's favour,
// by more than the parent's interquartile distance. A regression is a
// change median worse than the parent's by more than the bound. When the
// run-to-run spread of either side exceeds the bound the metric is
// unresolved, unless every change run beats every parent run.
func compareRuns(parent, change []float64, lowerIsBetter bool, bound float64) comparison {
	c := comparison{pairs: min(len(parent), len(change))}
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	better := func(a, b float64) bool { // a better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	for i := 0; i < c.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			c.wins++
		case better(parent[i], change[i]):
			c.losses++
		default:
			c.ties++
		}
	}
	c.worse = (c.changeMed - c.parentMed) / math.Abs(c.parentMed)
	if !lowerIsBetter {
		c.worse = -c.worse
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, x := range change {
		for _, y := range parent {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	iqr := c.parentQ3 - c.parentQ1
	switch {
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs &&
		better(c.changeMed, c.parentMed) && math.Abs(c.changeMed-c.parentMed) > iqr:
		c.verdict = verdictGain
	case c.worse > bound:
		c.verdict = verdictRegression
	case (spread(parent) > bound || spread(change) > bound) && !allBetter:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictSame
	}
	return c
}
