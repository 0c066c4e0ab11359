package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
)

func TestLayerTimesSelfTime(t *testing.T) {
	spans := []span{
		// Appended at their ends, as the wrappers do: children first.
		{start: 0, end: 10, layer: lPrep},
		{start: 10, end: 20, layer: lRunRound},
		{start: 50, end: 60, layer: lInstall},
		{start: 20, end: 80, layer: lPlayout},
		{start: 80, end: 90, layer: lRetire},
		{start: 90, end: 95, layer: lRecord},
		{start: 0, end: 100, layer: lRound},
		// Round 2 starts where round 1 ended.
		{start: 100, end: 130, layer: lPrep},
		{start: 100, end: 200, layer: lRound},
	}
	got := layerTimes(spans)
	want := map[layer]layerTime{
		lRound:    {total: 200, self: 5 + 70},
		lPrep:     {total: 40, self: 40},
		lPlayout:  {total: 60, self: 50},
		lInstall:  {total: 10, self: 10},
		lRunRound: {total: 10, self: 10},
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s: %+v, want %+v", layerNames[l], got[l], w)
		}
	}
}

// passThroughWorkloads are 50-round configs of every system kind plus the
// fabric, small enough to run plain and traced in a unit test.
func passThroughWorkloads() []*workload {
	tiny := func(sys core.SystemKind) func(int64, int) core.RunConfig {
		return func(seed int64, n int) core.RunConfig { return tinyRounds(sys, seed, n) }
	}
	var out []*workload
	for _, sys := range []core.SystemKind{core.SystemLIFL, core.SystemSLH, core.SystemSF, core.SystemSL} {
		out = append(out, &workload{name: string(sys), shape: shapeSync, traj: true, rounds: 50, config: tiny(sys)})
	}
	async := workloadByName("async-buffered")
	out = append(out, &workload{name: "async", shape: shapeAsync, rounds: 5, config: func(seed int64, n int) core.RunConfig {
		cfg := async.config(seed, n)
		cfg.Clients = 400
		return cfg
	}})
	out = append(out, &workload{name: "fabric", shape: shapeFabric, rounds: 50, config: func(seed int64, n int) core.RunConfig {
		return core.RunConfig{
			Model: model.ResNet18, Clients: 800, ActivePerRound: 40, Class: flwork.Mobile,
			TargetAccuracy: 0.99, MaxRounds: n, MC: 60, Seed: seed,
			Cells: &core.CellSpec{Count: 3, Regions: []float64{0.5, 0.3, 0.2}},
		}
	}})
	return out
}

// TestTracedRunIsPassThrough checks the wrappers change nothing the run
// produces, and that each shape's traced run sees the seams it should.
func TestTracedRunIsPassThrough(t *testing.T) {
	seen := map[shape][]layer{
		shapeSync:   {lPrep, lRunRound, lPlayout, lInstall, lRetire, lRecord, lObserve},
		shapeAsync:  {lPrep, lDispatch, lLocalUpdate, lRetire, lRecord},
		shapeFabric: {lCellPlay, lInstall, lCellClose},
	}
	for _, w := range passThroughWorkloads() {
		p, err := execute(w, 7, 1, plain, t.TempDir())
		if err != nil {
			t.Fatalf("%s plain: %v", w.name, err)
		}
		tr, err := execute(w, 7, 1, traced, t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.digest != p.digest {
			t.Errorf("%s: traced digest %x, plain %x", w.name, tr.digest, p.digest)
		}
		rounds := 0
		for _, s := range tr.spans {
			if s.layer == lRound {
				rounds++
			}
		}
		if rounds != p.rounds {
			t.Errorf("%s: %d round spans for %d rounds", w.name, rounds, p.rounds)
		}
		times := layerTimes(tr.spans)
		for _, l := range seen[w.shape] {
			if times[l].total <= 0 {
				t.Errorf("%s: no %s time in the traced run", w.name, layerNames[l])
			}
		}
	}
}
