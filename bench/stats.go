package main

import (
	"slices"
	"time"
)

// percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := p / 100 * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default, exclusive
// method), so spreads read the same here and in the acceptance check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
