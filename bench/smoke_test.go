package main

import (
	"math"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload at 1/100 of its length in
// every variant and checks the per-layer metrics come out complete.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		b := &block{w: w, seed: 3}
		for v := variant(0); v < numVariants; v++ {
			r, err := execute(w, 3, 100, v, t.TempDir())
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, variantName(v), err)
			}
			b.attempted++
			b.runs[v] = append(b.runs[v], r)
		}
		b.checkDigests(nil)
		if b.failed > 0 {
			t.Fatalf("%s: %v", w.name, b.errs)
		}
		vals, rows, err := b.perLayerValues()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range perLayer {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", w.name, d.name, v, ok)
			}
		}
		if vals["round.mean_us"] <= 0 || rows["round"].Pct != 100 {
			t.Errorf("%s: round time %v us, round share %v%%", w.name, vals["round.mean_us"], rows["round"].Pct)
		}
	}
}

// TestPinnedDigests runs each workload once at full length on the pinned
// seed and checks its digest against testdata/digests.json.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length runs")
	}
	pinned, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r, err := execute(w, pinnedSeed, 1, plain, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got := hexDigest(r.digest); got != pinned[w.name] {
			t.Errorf("%s: digest %s, pinned %q", w.name, got, pinned[w.name])
		}
	}
}

func TestEndToEndValues(t *testing.T) {
	b := &block{w: workloads[0]}
	for i := 0; i < 3; i++ {
		r := &runResult{
			setup:      time.Duration(i+1) * time.Millisecond,
			total:      time.Duration(i+1) * time.Second,
			rounds:     500,
			updates:    4000,
			mallocs:    500 * 100,
			allocBytes: 500 * 2048,
			liveHeap:   float64(i+7) * (1 << 20),
		}
		for k := 0; k < 500; k++ {
			r.walls = append(r.walls, time.Duration(k+1)*time.Microsecond)
		}
		b.runs[plain] = append(b.runs[plain], r)
	}
	vals, err := b.endToEndValues()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setup_s":            0.002,
		"run_s":              2,
		"updates_per_s":      4000 / 1.998,
		"round_ms.p99":       0.49501,
		"mallocs_per_round":  100,
		"alloc_kb_per_round": 2,
		"resident_heap_mb":   8,
	}
	for name, v := range want {
		if math.Abs(vals[name]-v) > 1e-9*math.Max(1, v) {
			t.Errorf("%s = %v, want %v", name, vals[name], v)
		}
	}
	if len(vals) != len(endToEnd) {
		t.Errorf("%d end-to-end values, want %d", len(vals), len(endToEnd))
	}
	// One run's 500 rounds leave only five samples beyond p99.
	b.runs[plain] = b.runs[plain][:1]
	if _, err := b.endToEndValues(); err == nil {
		t.Error("round_ms.p99 of 500 samples accepted")
	}
}
