package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// lowerQuartile returns the first quartile of xs, as quartiles gives it.
func lowerQuartile(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), so the spreads this program reports are the ones an outside
// check computes. With one value all three are that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ms and secs convert durations to the units the metrics use.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is a zero-safe division.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
