package main

import (
	"fmt"
	"sort"
)

const (
	// tailPercentile is the tail the live workloads report. p99 has enough
	// samples beyond it at 2000, but one scheduler stall lands in it whole:
	// the prototype's p99 ranged 62–113 ms where its p95 held to ±0.7%.
	tailPercentile = 95
	// tailMinSamples is the fewest latency samples a tail is taken from.
	tailMinSamples = 2000
	// beyondMin is how many samples must lie beyond a reported percentile.
	beyondMin = 10
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// supports reports whether n samples leave at least beyondMin of them beyond
// the p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= beyondMin-1e-9 // 100−99.9 is not exact
}

// percentile returns the p-th percentile (nearest rank) of xs, refusing one
// the sample count does not support.
func percentile(xs []float64, p float64) (float64, error) {
	if !supports(len(xs), p) {
		return 0, fmt.Errorf("p%g of %d samples leaves fewer than %d beyond it", p, len(xs), beyondMin)
	}
	s := sorted(xs)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// tail returns the tail latency of a live workload's samples.
func tail(xs []float64) (float64, error) {
	if len(xs) < tailMinSamples {
		return 0, fmt.Errorf("a tail needs %d latency samples, have %d: run for longer", tailMinSamples, len(xs))
	}
	return percentile(xs, tailPercentile)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default exclusive method), so the
// spreads bench compare prints are the ones the acceptance check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle of xs (the mean of the middle two when even),
// and 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
