package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the value is one outlier's latency, not the
// distribution's.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile returns the p-th percentile of an ascending sample, and
// refuses when fewer than minBeyond samples lie beyond it.
func tailPercentile(sorted []float64, p float64) (float64, error) {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if beyond := len(sorted) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(sorted), beyond, minBeyond)
	}
	return percentile(sorted, p), nil
}

// tail returns the highest of the candidate percentiles the sample supports,
// or p = 0 when it supports none.
func tail(sorted []float64, candidates ...float64) (value, p float64) {
	for _, c := range candidates {
		if v, err := tailPercentile(sorted, c); err == nil {
			return v, c
		}
	}
	return 0, 0
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// ratio is a/b, and 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
