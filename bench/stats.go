package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads read the same here as in any script that checks
// them. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0 < p < 100) of xs, linearly
// interpolated between closest ranks. It fails unless at least minBeyond
// samples lie above the result, the rule that keeps a tail percentile from
// resting on a handful of samples.
func percentile(xs []float64, p float64, minBeyond int) (float64, error) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	v := s[lo]
	if lo+1 < len(s) {
		v += (s[lo+1] - s[lo]) * (pos - float64(lo))
	}
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of n=%d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return v, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
