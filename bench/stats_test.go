package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 5}, 1.25, 2.5, 4.5},
		{[]float64{0.5, 0.25, 4, 8, 16, 2.5, 1}, 0.5, 2.5, 8},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	p50, err := percentile(seq(1000), 50, 10)
	if err != nil || p50 != 500.5 {
		t.Fatalf("p50 of 1..1000 = %v, %v", p50, err)
	}
	p99, err := percentile(seq(1000), 99, 10)
	if err != nil || math.Abs(p99-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %v, %v", p99, err)
	}
	// 900 samples leave only 9 above p99.
	if _, err := percentile(seq(900), 99, 10); err == nil {
		t.Fatal("p99 of 900 samples accepted with 9 beyond it")
	}
	// Ties at the top: 995 zeros and five ones put nothing above p99 = 1.
	tied := make([]float64, 1000)
	for i := 995; i < 1000; i++ {
		tied[i] = 1
	}
	if _, err := percentile(tied, 99, 10); err == nil {
		t.Fatal("p99 accepted with no samples beyond it")
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}
