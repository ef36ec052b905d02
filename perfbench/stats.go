package main

import (
	"slices"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail is the highest sample with tailSamples samples beyond it, when at
// least 4×tailSamples samples exist; with fewer it is the largest sample
// (a run that holds a handful of operations has no tail to speak of). It
// also returns the percentile the value stands for.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 4*tailSamples {
		return s[n-1], 100
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles are Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so spreads read the same as any other tool computes
// them. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
