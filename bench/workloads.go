package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
)

// shape is which round loop a workload drives: core's synchronous loop,
// core's buffered-async version loop, or the multi-cell fabric's loop. It
// decides which layer seams the traced run can wrap.
type shape int

const (
	shapeSync shape = iota
	shapeAsync
	shapeFabric
)

// workload is one named benchmark input. Every workload is closed-loop: a
// round (or async version) starts only when the previous one has closed,
// so each reports work per second at the size its config states.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json carries
	// the same text.
	why   string
	shape shape
	// traj streams every round into a trajstore sink (a temp file).
	traj bool
	// obs attaches an obs.New(obs.Options{}) registry and writes its Det
	// snapshot when the run ends, as `liflsim -telemetry` does.
	obs bool
	// rounds is the full-length MaxRounds; shorter passes divide it.
	rounds int
	// config builds the run config for a seed and a MaxRounds value.
	config func(seed int64, maxRounds int) core.RunConfig
}

// workloads is the benchmark's fixed input set, in run order.
var workloads = []*workload{
	{
		name:   "ctrl-churn",
		why:    "LIFL TinyFL rounds: the per-round control plane (RunRound, play-out, RetireRound) is nearly all the work",
		shape:  shapeSync,
		traj:   true,
		rounds: 10000,
		config: func(seed int64, n int) core.RunConfig { return tinyRounds(core.SystemLIFL, seed, n) },
	},
	{
		name:   "ctrl-churn-sl",
		why:    "ctrl-churn on SL: broker topics and sidecars instead of sockmap entries and gateway routes",
		shape:  shapeSync,
		traj:   true,
		rounds: 20000,
		config: func(seed int64, n int) core.RunConfig { return tinyRounds(core.SystemSL, seed, n) },
	},
	{
		name:   "ctrl-churn-obs",
		why:    "ctrl-churn with an obs registry and a Det snapshot: the only workload that pays for telemetry",
		shape:  shapeSync,
		traj:   true,
		obs:    true,
		rounds: 10000,
		config: func(seed int64, n int) core.RunConfig { return tinyRounds(core.SystemLIFL, seed, n) },
	},
	{
		name:   "fleet-4m",
		why:    "4M mobile clients: population synthesis, resident heap, and select plus materialize each round",
		shape:  shapeSync,
		rounds: 240,
		config: func(seed int64, n int) core.RunConfig {
			return core.RunConfig{
				System:         core.SystemLIFL,
				Model:          model.ResNet18,
				Clients:        4_000_000,
				ActivePerRound: 120,
				Class:          flwork.Mobile,
				TargetAccuracy: 0.99,
				MaxRounds:      n,
				Nodes:          5,
				MC:             60,
				Seed:           seed,
				Workers:        min(2, runtime.NumCPU()),
				Selector:       core.SelectStream,
				StreamOnly:     true,
				Milestones:     []float64{0.5, 0.7},
			}
		},
	},
	{
		name:   "async-buffered",
		why:    "buffered-async loop: one Dispatch per client and one materialization per update, no round barrier",
		shape:  shapeAsync,
		rounds: 300,
		config: func(seed int64, n int) core.RunConfig {
			return core.RunConfig{
				System:         core.SystemAsync,
				Model:          model.ResNet18,
				Clients:        2800,
				ActivePerRound: 120,
				Class:          flwork.Mobile,
				TargetAccuracy: 0.99,
				MaxRounds:      n,
				Nodes:          2,
				MC:             60,
				Seed:           seed,
				Async:          &core.AsyncSpec{BufferK: 10, Concurrency: 120, StalenessHalfLife: 4},
				Milestones:     []float64{0.5, 0.7},
			}
		},
	},
	{
		name:   "geo-4cell",
		why:    "four skewed-region cells: the fabric round loop and the cross-cell aggregation tier",
		shape:  shapeFabric,
		rounds: 240,
		config: func(seed int64, n int) core.RunConfig {
			return core.RunConfig{
				System:         core.SystemLIFL,
				Model:          model.ResNet18,
				Clients:        2800,
				ActivePerRound: 120,
				Class:          flwork.Mobile,
				TargetAccuracy: 0.99,
				MaxRounds:      n,
				Nodes:          5,
				MC:             60,
				Seed:           seed,
				Cells:          &core.CellSpec{Count: 4, Regions: []float64{0.4, 0.3, 0.2, 0.1}},
				Milestones:     []float64{0.5, 0.7},
			}
		},
	},
}

// tinyRounds is the ctrl-churn family's config: TinyFL keeps tensor work
// negligible and the 0.99 target is unreachable, so every round runs.
func tinyRounds(sys core.SystemKind, seed int64, n int) core.RunConfig {
	return core.RunConfig{
		System:         sys,
		Model:          model.TinyFL,
		Clients:        512,
		ActivePerRound: 8,
		Class:          flwork.Server,
		TargetAccuracy: 0.99,
		MaxRounds:      n,
		Nodes:          1,
		MC:             60,
		Seed:           seed,
		Selector:       core.SelectStream,
		StreamOnly:     true,
	}
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig returns the workload's config at 1/div of its full length.
func (w *workload) runConfig(seed int64, div int) core.RunConfig {
	return w.config(seed, max(1, w.rounds/div))
}

// expected returns the rounds (async: versions) a run of cfg must complete
// and the updates it must fold: the targets are unreachable, so every run
// goes the full MaxRounds.
func (w *workload) expected(cfg core.RunConfig) (rounds, updates int) {
	if w.shape == shapeAsync {
		k := cfg.Async.BufferK
		versions := cfg.MaxRounds * cfg.ActivePerRound / k
		return versions, versions * k
	}
	return cfg.MaxRounds, cfg.MaxRounds * cfg.ActivePerRound
}
