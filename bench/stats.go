package main

import (
	"math"
	"sort"
)

// summary is how a set reports one metric: median, quartiles and sample
// count over the runs of the set.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spread is the interquartile range as a share of the median — the
// run-to-run spread the bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarize(values []float64) summary {
	v := sortedCopy(values)
	s := summary{N: len(v)}
	if len(v) == 0 {
		return s
	}
	s.Median = median(v)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(v) >= 2 {
		s.Q1, _, s.Q3 = quartiles(v)
	}
	return s
}

func sortedCopy(values []float64) []float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return v
}

// median of an ascending slice.
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

// quartiles of an ascending slice of at least two values, by the
// exclusive method of Python's statistics.quantiles(values, n=4) — the
// rule the acceptance check of the benchmark uses.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	const n = 4
	m := len(sorted)
	cut := func(i int) float64 {
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the p-quantile (0..1) of an ascending slice by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
