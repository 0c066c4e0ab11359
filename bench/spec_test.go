package main

import (
	"path/filepath"
	"testing"
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step: the
// same workloads and reasons, the same metrics with the same units and
// directions, and a run length equal to the -seconds default.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workload %d: spec %q %q, program %q %q", i, s.Name, s.Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("spec has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, d := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("end-to-end %d: spec %+v, program %+v", i, s, d)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		maxBound = max(maxBound, s.Bound)
		if s.Name == "setup_s" {
			setupBound = s.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
			t.Errorf("per-layer %d: spec %+v, program %+v", i, s, d)
		}
	}
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != c.seconds {
		t.Errorf("spec run_seconds %d, -seconds default %d", spec.RunSeconds, c.seconds)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	c, err := parseFlags([]string{"--workload", "geo-4cell", "--seed", "4", "--seconds", "3", "--trace", "1"})
	if err != nil || c.workload != "geo-4cell" || c.seed != 4 || c.seconds != 3 || c.trace != 1 {
		t.Errorf("single-workload flags parsed to %+v, %v", c, err)
	}
}
