package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trajstore"
)

// variant is how one run of a workload is set up.
type variant int

const (
	// plain runs the workload as defined; it alone feeds the end-to-end
	// metrics.
	plain variant = iota
	// toggled runs the workload with telemetry flipped (an obs registry
	// attached when the workload has none, removed when it has one), for
	// obs.overhead_pct.
	toggled
	// traced runs the workload with pass-through wrappers on every layer
	// seam, for the per-layer metrics.
	traced
	numVariants
)

// runResult is what one run of a workload measured and produced.
type runResult struct {
	setup, total time.Duration
	// walls holds every RoundObservation.Wall, in round order.
	walls []time.Duration
	// rounds is Report.RoundsRun and observed the OnRound calls; updates,
	// discarded, shares and the agg counts are sums over those rounds.
	rounds, observed, updates, discarded, shares int
	aggsCreated, aggsActive, nodesUsed, pend     int
	crossCellBytes                               uint64

	mallocs, allocBytes uint64
	// liveHeap is the heap a collection forced at the final round found
	// live, less what was live before the run call (the benchmark's own
	// data, earlier runs' results included). Sampling the heap every 2 ms
	// instead, as harness/instrument.go does, slowed ctrl-churn runs by
	// about 15% and on heaps of a few MiB measured the collector's timing:
	// one seed peaked anywhere from 3.7 to 34 MiB.
	liveHeap        float64
	gcCPU, totalCPU float64
	gcCycles        uint64

	// digest covers the Report, the .traj bytes and (when the workload
	// itself has telemetry) the Det snapshot; coreDigest leaves the
	// snapshot out, so a toggled run must match it.
	digest, coreDigest uint64
	trajBytes          int64
	snapshot           time.Duration
	spansDropped       uint64
	// spans is the traced run's span log (nil otherwise).
	spans []span
}

// execute runs w once at 1/div of its full length and checks its outputs.
// Temp files go under tmp and are removed before it returns.
func execute(w *workload, seed int64, div int, v variant, tmp string) (*runResult, error) {
	cfg := w.runConfig(seed, div)
	wantRounds, wantUpdates := w.expected(cfg)
	withObs := w.obs != (v == toggled)
	dir, err := os.MkdirTemp(tmp, "run-*")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(dir)

	res := &runResult{walls: make([]time.Duration, 0, wantRounds)}
	var rec *recorder
	if v == traced {
		rec = newRecorder(w, wantRounds)
		cfg.ServerOpt = &tracedOpt{ServerOpt: fedavg.Adopt{}, rec: rec}
	}
	var eng *sim.Engine
	var firstRound time.Time
	// heap0 is the live heap before the run call. heapRead is the time a
	// plain run's final-round collection took; it is measurement, not
	// work, so it is left out of the run time.
	var heap0 uint64
	var heapRead time.Duration
	cfg.OnRound = func(ob core.RoundObservation) {
		if res.observed == 0 {
			firstRound = time.Now().Add(-ob.Wall)
		}
		res.observed++
		res.walls = append(res.walls, ob.Wall)
		if v == plain && res.observed == wantRounds {
			t := time.Now()
			runtime.GC()
			res.liveHeap = float64(readLiveHeap()) - float64(heap0)
			heapRead = time.Since(t)
		}
		res.updates += ob.Result.Updates
		res.discarded += ob.Discarded
		res.shares += ob.Shares
		res.aggsCreated += ob.Result.AggsCreated
		res.aggsActive += ob.Result.AggsActive
		res.nodesUsed += ob.Result.NodesUsed
		if eng != nil {
			res.pend += eng.Pending()
		}
		if rec != nil {
			rec.onRound(ob.Wall)
		}
	}

	runtime.GC()
	debug.FreeOSMemory()
	heap0 = readLiveHeap()
	rt0 := readRuntime()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	if rec != nil {
		rec.start(t0)
	}
	var sink *trajstore.Sink
	var reg *obs.Registry
	var snap []byte
	rep, runErr := func() (*core.Report, error) {
		if w.traj {
			s, err := trajstore.NewSink(filepath.Join(dir, "run.traj"), cfg, trajstore.Options{})
			if err != nil {
				return nil, err
			}
			sink = s
			cfg.Trajectory = s
			if rec != nil {
				cfg.Trajectory = &tracedSink{TrajectorySink: s, rec: rec}
			}
		}
		if withObs {
			reg = obs.New(obs.Options{})
			cfg.Telemetry = reg
		}
		if w.shape == shapeFabric {
			rep, detail, err := cell.Run(cfg)
			if err != nil {
				return nil, err
			}
			res.setup = firstRound.Sub(t0)
			res.crossCellBytes = detail.CrossCellBytes
			return rep, nil
		}
		p, err := core.NewPlatform(cfg)
		if err != nil {
			return nil, err
		}
		res.setup = time.Since(t0)
		eng = p.Eng
		if rec != nil {
			rec.wrap(p)
		}
		return p.Run()
	}()
	if runErr == nil && reg != nil {
		t := time.Now()
		snap = reg.Snapshot()
		runErr = os.WriteFile(filepath.Join(dir, "telemetry.json"), snap, 0o644)
		res.snapshot = time.Since(t)
		res.spansDropped = reg.Spans().Dropped()
	}
	if sink != nil {
		if err := sink.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	res.total = time.Since(t0) - heapRead

	runtime.ReadMemStats(&after)
	rt1 := readRuntime()
	// The runtime folds CPU time into /cpu/classes only when a collection
	// ends; one more makes the readings current.
	runtime.GC()
	cpu1 := readRuntime()
	if runErr != nil {
		return nil, runErr
	}
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCPU = cpu1.gcCPU - rt0.gcCPU
	res.totalCPU = cpu1.totalCPU - rt0.totalCPU
	res.gcCycles = rt1.gcCycles - rt0.gcCycles
	res.rounds = rep.RoundsRun
	if rec != nil {
		res.spans = rec.spans
	}

	if err := checkRun(w, rep, res, wantRounds, wantUpdates); err != nil {
		return nil, err
	}
	var traj []byte
	if sink != nil {
		if traj, err = checkTrajectory(sink.Path(), rep); err != nil {
			return nil, err
		}
		res.trajBytes = int64(len(traj))
	}
	if reg != nil {
		if err := checkTelemetry(w, reg, rep); err != nil {
			return nil, err
		}
	}
	res.coreDigest = digest(rep, traj, nil)
	if !w.obs {
		snap = nil // a toggled run's snapshot is not the workload's output
	}
	res.digest = digest(rep, traj, snap)
	return res, nil
}

// checkRun verifies the outputs every run must produce: the full round
// count (the targets are unreachable), every update folded, one
// observation per round, and a finite trained model.
func checkRun(w *workload, rep *core.Report, res *runResult, wantRounds, wantUpdates int) error {
	if rep.RoundsRun != wantRounds || rep.Reached {
		return fmt.Errorf("ran %d rounds (reached=%v), want %d with the target unreached", rep.RoundsRun, rep.Reached, wantRounds)
	}
	if res.observed != rep.RoundsRun {
		return fmt.Errorf("observed %d rounds of %d", res.observed, rep.RoundsRun)
	}
	if res.updates != wantUpdates {
		return fmt.Errorf("folded %d updates, want %d", res.updates, wantUpdates)
	}
	if w.shape == shapeFabric && res.crossCellBytes == 0 {
		return fmt.Errorf("fabric run shipped no cross-cell bytes")
	}
	if rep.FinalGlobal == nil || rep.FinalGlobal.Len() == 0 {
		return fmt.Errorf("no final global model")
	}
	for i, x := range rep.FinalGlobal.Data {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("final global[%d] = %v", i, x)
		}
	}
	return nil
}

// checkTrajectory replays the run's .traj file (verifying every block
// checksum), checks it agrees with the Report, and returns its bytes.
func checkTrajectory(path string, rep *core.Report) ([]byte, error) {
	sum, err := trajstore.Replay(path, nil)
	if err != nil {
		return nil, fmt.Errorf("trajectory replay: %w", err)
	}
	if sum.Rounds != rep.RoundsRun || sum.Last.Round != rep.RoundsRun || sum.Reached != rep.Reached {
		return nil, fmt.Errorf("trajectory has %d rounds ending at %d (reached=%v), report ran %d",
			sum.Rounds, sum.Last.Round, sum.Reached, rep.RoundsRun)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trajectory: %w", err)
	}
	return data, nil
}

// checkTelemetry checks the registry counted every round the Report ran.
func checkTelemetry(w *workload, reg *obs.Registry, rep *core.Report) error {
	name := map[shape]string{shapeSync: "core/rounds", shapeAsync: "core/versions", shapeFabric: "fabric/rounds"}[w.shape]
	vals := reg.CounterValues(name)
	if len(vals) == 0 || vals[0].Name != name || int(vals[0].Value) != rep.RoundsRun {
		return fmt.Errorf("telemetry %s = %v, report ran %d rounds", name, vals, rep.RoundsRun)
	}
	return nil
}

// runtimeReading is the Go runtime's cumulative GC and CPU accounting.
type runtimeReading struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

var runtimeSamples = []runtimemetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeReading {
	runtimemetrics.Read(runtimeSamples)
	return runtimeReading{
		gcCPU:    runtimeSamples[0].Value.Float64(),
		totalCPU: runtimeSamples[1].Value.Float64(),
		gcCycles: runtimeSamples[2].Value.Uint64(),
	}
}

// readLiveHeap returns the heap the last collection marked live.
func readLiveHeap() uint64 {
	s := []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtimemetrics.Read(s)
	return s[0].Value.Uint64()
}
