package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample; zero for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(p, len(sorted)), 1)-1]
}

// rank is the nearest-rank position of the p-th percentile among n samples.
// p/100*n is not exact in floating point (99.9/100*10000 comes out a hair
// above 9990), so a product within 1e-9 of a whole number counts as it.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentileLadder is the set of percentiles the benchmark ever reports.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it — above that a "percentile" is a
// handful of outliers. It is 0 when even the median has fewer than ten.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a sample; 0 for an empty one.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n := len(data); n%2 == 1 {
		return data[n/2]
	} else {
		return (data[n/2-1] + data[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of a
// sample the way Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), because that is what the benchmark's acceptance rule
// is computed with. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// quantity the acceptance rule holds against a metric's bound.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
