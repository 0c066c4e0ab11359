package core

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Recorder books a run's rounds into its Report and fans each one out to
// the run's observers. It is the one place that keeps a run's round
// bookkeeping: the sync round loop, the async version loop, the cell
// fabric's global loop and trajstore.Replay all hand it their rounds, so
// the shapes cannot drift apart in how they count rounds, cross
// milestones or reach the target.
type Recorder struct {
	// Report holds the round bookkeeping; the caller fills in the run-level
	// outcomes (FinalGlobal, Elapsed, CPUTotal, …) once the loop ends.
	Report *Report

	slices     bool // keep the per-round slices (not StreamOnly)
	rounds     bool // keep Rounds and CPUPerRound (a run with rounds, not async)
	target     float64
	milestones []float64 // ascending; next indexes the first not yet crossed
	next       int
	accuracy   *obs.Gauge
	activeAggs func() int
	onRound    func(RoundObservation)
	sink       TrajectorySink
}

// NewRecorder starts the Report for a run of the defaulted cfg.
// activeAggs samples the live aggregator count into Report.ActiveAggs; it
// is called only when cfg keeps per-round slices (not StreamOnly).
func NewRecorder(cfg RunConfig, activeAggs func() int) *Recorder {
	milestones := append([]float64(nil), cfg.Milestones...)
	sort.Float64s(milestones)
	return &Recorder{
		Report:     &Report{System: cfg.System, Model: cfg.Model},
		slices:     !cfg.StreamOnly,
		rounds:     cfg.System != SystemAsync,
		target:     cfg.TargetAccuracy,
		milestones: milestones,
		accuracy:   cfg.Telemetry.Gauge("core/accuracy", obs.Det),
		activeAggs: activeAggs,
		onRound:    cfg.OnRound,
		sink:       cfg.Trajectory,
	}
}

// Record books one completed round (an async version, a fabric global
// round) and hands it to OnRound, then to the trajectory sink. A sink
// error is returned for the caller to abort on: a trajectory that
// silently lost rounds is worse than no trajectory. Report.Reached turns
// true at the round whose accuracy first meets the target.
func (r *Recorder) Record(ob RoundObservation) error {
	rep, at := r.Report, ob.Acc
	rep.RoundsRun++
	rep.RoundWallTotal += ob.Wall
	rep.RoundWallMax = max(rep.RoundWallMax, ob.Wall)
	rep.UpdatesDiscarded += ob.Discarded
	if r.slices {
		if r.rounds {
			rep.Rounds = append(rep.Rounds, ob.Result)
			rep.CPUPerRound = append(rep.CPUPerRound, ob.Result.CPUTime.Seconds())
		}
		rep.ActiveAggs = append(rep.ActiveAggs, r.activeAggs())
		rep.Acc = append(rep.Acc, at)
	}
	// Milestone levels are consumed in ascending order as the (monotone)
	// accuracy curve crosses them.
	for r.next < len(r.milestones) && at.Accuracy >= r.milestones[r.next] {
		rep.Milestones = append(rep.Milestones, MilestoneHit{Target: r.milestones[r.next], At: at})
		r.next++
	}
	if !rep.Reached && at.Accuracy >= r.target {
		rep.Reached = true
		rep.TimeToTarget = at.Time
		rep.CPUToTarget = at.CPUTime
	}
	r.accuracy.Set(at.Accuracy)
	if r.onRound != nil {
		r.onRound(ob)
	}
	if r.sink != nil {
		if err := r.sink.Observe(ob); err != nil {
			return fmt.Errorf("core: trajectory sink at round %d: %w", at.Round, err)
		}
	}
	return nil
}
