package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for an even
// count); 0 for an empty slice. The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minMax returns the smallest and largest value; zeros for an empty slice.
func minMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailSamples is how many samples must lie beyond a percentile before it is
// reported: below that the figure is one outlier, not a tail.
const tailSamples = 10

// percentileOK reports whether n samples leave at least tailSamples beyond
// the q-quantile, the rule every reported percentile has to meet (p99 needs
// 1000 samples, p90 needs 100).
func percentileOK(n int, q float64) bool {
	return float64(n)*(1-q) >= tailSamples-1e-9
}

// highestPercentile returns the highest of p50/p90/p99/p99.9 that n samples
// support under percentileOK (0 when even the median has no tail).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if percentileOK(n, q) {
			best = q
		}
	}
	return best
}

// tail is the q-quantile of sorted when the sample count supports it under
// percentileOK, and otherwise the highest percentile it does support (at
// least the median): a "p99" over 300 samples is reported as their p90.
func tail(sorted []float64, q float64) float64 {
	return percentile(sorted, min(q, max(highestPercentile(len(sorted)), 0.5)))
}

// sortedCopy returns values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 — counters that did not move report 0, not
// NaN, so every metric stays a JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
