package main

import (
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		floor       float64
		want        verdict
	}{
		{"identical", base, base, true, 0.1, 0, same},
		{"within bound", base, scale(base, 1.05), true, 0.1, 0, same},
		{"slower beyond bound", base, scale(base, 1.2), true, 0.1, 0, worse},
		{"faster everywhere", base, scale(base, 0.8), true, 0.1, 0, better},
		{"higher is better, dropped", base, scale(base, 0.8), false, 0.1, 0, worse},
		{"higher is better, rose", base, scale(base, 1.2), false, 0.1, 0, better},
		{"parent spread above bound", []float64{1, 1.5, 0.7, 1.3, 0.8}, []float64{1.1, 0.9, 1.2, 1, 1}, true, 0.1, 0, unresolved},
		{"wide spread, every run better", []float64{1, 1.5, 0.7, 1.3, 0.8}, []float64{0.5, 0.6, 0.55, 0.5, 0.6}, true, 0.1, 0, better},
		{"under the absolute floor", []float64{0.001, 0.001, 0.001}, []float64{0.003, 0.003, 0.003}, true, 0.1, 0.005, same},
		{"over the absolute floor", []float64{0.001, 0.001, 0.001}, []float64{0.008, 0.008, 0.008}, true, 0.1, 0.005, worse},
		{"spread under the absolute floor", []float64{0.001, 0.002, 0.0015}, []float64{0.002, 0.001, 0.0015}, true, 0.1, 0.005, same},
		// Better by less than the parent's own spread is no gain.
		{"gain inside the spread", base, scale(base, 0.99), true, 0.1, 0, same},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.lowerBetter, c.bound, c.floor); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(runS []float64, failed int) *result {
		wr := workloadResult{Name: "ctrl-churn", Attempted: 10, Failed: failed}
		for i, v := range runS {
			vals := map[string]float64{}
			for _, d := range endToEnd {
				vals[d.name] = 1 + float64(i%2)*0.001
			}
			vals["run_s"] = v
			wr.blocks = append(wr.blocks, vals)
		}
		wr.summarize()
		return &result{Schema: resultSchema, Workloads: []workloadResult{wr}}
	}
	verdicts := func(a, b *result) map[string]verdict {
		rows, err := compareResults(spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]verdict{}
		for _, r := range rows {
			out[r.metric] = r.verdict
		}
		return out
	}
	a := mk([]float64{1, 1, 1, 1, 1}, 0)
	got := verdicts(a, mk([]float64{2, 2, 2, 2, 2}, 0))
	if got["run_s"] != worse || got["setup_s"] != same || got["failed_frac"] != same {
		t.Errorf("slower run_s: %v", got)
	}
	got = verdicts(a, mk([]float64{1, 1, 1, 1, 1}, 1))
	if got["failed_frac"] != worse || got["run_s"] != same {
		t.Errorf("a failed run: %v", got)
	}
	if len(got) != len(endToEnd)+1 {
		t.Errorf("%d verdicts, want one per end-to-end metric plus failed_frac", len(got))
	}
	if _, err := compareResults(spec, a, &result{Schema: resultSchema}); err == nil {
		t.Error("a workload missing from B was not reported")
	}
}
