package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median is the midpoint of sorted, averaging the two middle samples of an
// even-length slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of sorted
// by the rule Python's statistics.quantiles(data, n=4) uses by default
// (method "exclusive"), so the spreads this harness reports match the ones
// computed over its outputs.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = sorted[0]
		case j >= n:
			q[i-1] = sorted[n-1]
		default:
			q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// samples collects per-operation latencies.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()*1e3) }

// addFailed records an operation that failed: it misses every latency
// limit.
func (s *samples) addFailed() { *s = append(*s, math.Inf(1)) }

// sorted returns a sorted copy, in milliseconds.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}
