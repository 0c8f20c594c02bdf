package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[percentileRank(len(sorted), p)-1]
}

// percentileRank is the 1-based nearest-rank index of the p-th percentile
// among n samples.
func percentileRank(n int, p float64) int {
	// The epsilon keeps 99.9 % of 10000 at rank 9990, not 9991: the
	// product is not exact in binary.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder is the set of tail percentiles the benchmark reports, high
// to low.
var tailLadder = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): below that the "percentile" is a handful of
// outliers, not a distribution tail.
const minBeyond = 10

// supportedTail returns the highest ladder percentile that has at least
// minBeyond of the n samples strictly beyond its rank, or 50 when the
// sample supports no tail at all.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n-percentileRank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted, non-empty slice (mean of the middle pair when
// the count is even).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// growth is the ageing ratio of a run: the median of the last fifth of
// every round's operations over the median of the first fifth, pooled by
// position across rounds. A structure whose per-operation cost rises
// with the work already done (an O(n) append, a scan over history) reads
// above 1; a flat one reads 1.
func growth(rounds [][]float64) float64 {
	var first, last []float64
	for _, r := range rounds {
		k := len(r) / 5
		if k == 0 {
			continue
		}
		first = append(first, r[:k]...)
		last = append(last, r[len(r)-k:]...)
	}
	if len(first) == 0 {
		return 1
	}
	return median(last) / median(first)
}

func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
