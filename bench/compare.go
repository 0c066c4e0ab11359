package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bounds maps each end-to-end metric to its regression bound.
func (s *benchSpec) bounds() map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// setupFloor is the smallest set-up slowdown that counts as worse: below
// it, a set-up time of a few milliseconds is at the clock's noise.
var setupFloor = (5 * time.Millisecond).Seconds()

// verdict is the outcome of comparing one metric between two results.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the change's values b against the parent's values a. The
// change is worse when its median is worse than the parent's by more than
// bound (a share of the parent's median; at least floor in absolute
// terms). When the parent's own spread (q3 − q1) exceeds that same
// allowance the result is unresolved, unless every change value beats every
// parent value. The change is better when it wins nine tenths
// of the index-aligned pairs (ties count for neither) and its median beats
// the parent's by more than the parent's spread.
func judge(a, b []float64, lowerBetter bool, bound, floor float64) verdict {
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	gain := func(x, y float64) float64 { // how much y beats x
		if lowerBetter {
			return x - y
		}
		return y - x
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	spread, allowed := q3a-q1a, max(bound*math.Abs(ma), floor)
	if spread > allowed {
		if allBetter {
			return better
		}
		return unresolved
	}
	if -gain(ma, mb) > allowed {
		return worse
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain(ma, mb) > spread {
		return better
	}
	return same
}

// compareFiles prints a verdict for every workload × end-to-end metric of
// A (the parent) against B (the change) and returns 1 on any worse one.
func compareFiles(specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadResult(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResult(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	rows, err := compareResults(spec, a, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("%-16s %-20s %12s %12s %12s %12s %12s %12s  %s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Printf("%-16s %-20s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n",
			r.workload, r.metric, r.a.Median, r.a.Q1, r.a.Q3, r.b.Median, r.b.Q1, r.b.Q3, r.verdict)
		if r.verdict == worse {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d worse verdict(s)\n", bad)
		return 1
	}
	return 0
}

// compareRow is one workload × metric comparison.
type compareRow struct {
	workload, metric string
	a, b             summary
	verdict          verdict
}

func compareResults(spec *benchSpec, a, b *result) ([]compareRow, error) {
	bounds := spec.bounds()
	var rows []compareRow
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return nil, fmt.Errorf("workload %s missing from the second result", wa.Name)
		}
		for _, d := range endToEnd {
			bound, ok := bounds[d.name]
			if !ok {
				return nil, fmt.Errorf("%s has no bound in the spec", d.name)
			}
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			row := compareRow{workload: wa.Name, metric: d.name, a: sa, b: sb, verdict: unresolved}
			if len(sa.Values) > 0 && len(sb.Values) > 0 {
				floor := 0.0
				if d.name == "setup_s" {
					floor = setupFloor
				}
				row.verdict = judge(sa.Values, sb.Values, d.better == "lower", bound, floor)
			}
			rows = append(rows, row)
		}
		// failed_frac has an absolute bound of zero: any rise is worse.
		ff := compareRow{workload: wa.Name, metric: "failed_frac",
			a: summary{Median: wa.FailedFrac}, b: summary{Median: wb.FailedFrac}, verdict: same}
		switch {
		case wb.FailedFrac > wa.FailedFrac:
			ff.verdict = worse
		case wb.FailedFrac < wa.FailedFrac:
			ff.verdict = better
		}
		rows = append(rows, ff)
	}
	return rows, nil
}
