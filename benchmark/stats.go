package main

import (
	"math"
	"sort"
)

// sorted returns xs in ascending order without touching xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (the mean of the two middle values when the
// count is even), 0 when xs is empty.
//
// Blocks are summarised by their median and not by a percentile over
// single calls because the distribution of single calls is bimodal: a
// rank either finds its reply already delivered or sleeps until the
// scheduler wakes it, and which mode the 50th percentile lands in flips
// between runs (rank 0's per-call p50 of one lock ranged 1.7-36.7 µs
// while the block medians stayed within 13.9-14.7 µs). A block averages
// thousands of calls of both modes, and the median over blocks then
// discards the few blocks a stall of the machine inflated.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quantile interpolates the q-th quantile of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the driver judges the spread of ten runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5), quantile(s, 0.5)
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, with the percentile it is (99.9, 99, 90 or
// 50 when there are too few samples for more).
func tailPercentile(xs []float64) (value, pct float64) {
	s := sorted(xs)
	for _, p := range []float64{99.9, 99, 90} {
		if float64(len(s))*(100-p)/100 >= 10 {
			return quantile(s, p/100), p
		}
	}
	return quantile(s, 0.5), 50
}

// medianRatio is the median of a[i]/b[i] over the indices both have:
// samples taken next to each other share the machine's mood, so the
// ratio of neighbours is steadier than the ratio of the two medians.
func medianRatio(a, b []float64) float64 {
	n := min(len(a), len(b))
	r := make([]float64, n)
	for i := range r {
		r[i] = a[i] / b[i]
	}
	return median(r)
}
