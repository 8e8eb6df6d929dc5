package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. An empty slice has quantile 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(asc)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

// median returns the median of v (mean of the two middle samples when the
// count is even), 0 for an empty slice.
func median(v []float64) float64 {
	asc := sorted(v)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// tailLadder is the list of tail percentiles the report may quote.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// highestSupported returns the highest percentile of tailLadder that
// still has at least ten samples beyond it among n samples, the rule the
// choosing-metrics guide sets for quoting a tail; 0 when not even the
// median has ten samples above it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		// The percentile is the sample of rank ceil(q*n); the epsilon keeps
		// 0.9*100 = 90.00000000000001 from rounding up to 91.
		rank := int(math.Ceil(q*float64(n) - 1e-6))
		if n-rank >= 10 {
			best = q
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) (exclusive),
// which is the rule the acceptance check applies to repeated runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	return at(1), at(2), at(3)
}
