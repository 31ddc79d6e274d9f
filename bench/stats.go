package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile of sorted by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q·n from rounding up past an exact rank
	// (0.99·1000 is 990.0000000000001 in binary floating point).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return sorted[min(max(r, 1), n)-1]
}

// latency summarises one latency sample set in milliseconds. A
// percentile is reported with the sample count behind it, so a reader
// can tell a p99 resting on ten samples beyond it from one resting on a
// thousand.
type latency struct {
	n        int
	p50, p99 float64
}

func summarise(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return latency{n: len(s), p50: nearestRank(s, 0.50), p99: nearestRank(s, 0.99)}
}

// median is statistics.median: the middle value, or the mean of the
// two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method — the definition the run-to-run spread of a metric
// is judged by — so a spread computed here matches one computed there.
// It needs at least two values; with fewer it returns the single value
// (or zeros) for all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// bisect searches [lo, hi] for the highest rate pass accepts with a
// fixed number of probes, so every run does the same amount of work and
// the result's resolution is (hi-lo)/2^probes. It returns the highest
// rate a probe passed at, and 0 when none passed: it never reports a
// rate that was not shown to meet the test.
func bisect(lo, hi float64, probes int, pass func(rate float64) bool) float64 {
	best := 0.0
	for range probes {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo, best = mid, mid
		} else {
			hi = mid
		}
	}
	return best
}
