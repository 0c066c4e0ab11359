// The buffered-async progress loop (Fig. 11 / Appendix A): the event-driven
// counterpart of Platform.Run's synchronous round loop. There are no round
// barriers — Concurrency training slots are kept full at all times, each
// freed slot immediately redrawing a client through the streaming selector,
// and progress is observed at version bumps instead of round completions.
//
// Accuracy bookkeeping: the learning curve is calibrated in synchronous
// rounds of ActivePerRound aggregated updates, so an async run's effective
// round is foldedUpdates / ActivePerRound. A version bump (every BufferK
// folds) advances the curve by that conversion; time-to-accuracy then
// measures exactly what Fig. 11 argues about — how fast the wall clock
// accumulates the same update throughput without round barriers. The
// Report still carries Acc points (Round = version), Milestones, and the
// scalar outcomes; Rounds/CPUPerRound stay empty (there are no rounds).

package core

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tensor"
)

// runAsync drives a SystemAsync platform to the accuracy target or the
// MaxRounds×ActivePerRound folded-update bound.
func (p *Platform) runAsync() (*Report, error) {
	cfg := p.Cfg
	spec := *cfg.Async
	rng := sim.NewRNG(cfg.Seed + 2)
	rec := NewRecorder(cfg, p.Asys.ActiveAggregators)
	rep := rec.Report

	maxFolded := cfg.MaxRounds * cfg.ActivePerRound
	folded := 0
	done := false
	stopped := false // no further dispatches once the outcome is decided
	nextNode := 0
	lastBumpWall := time.Now()
	var sinkErr error // the trajectory sink's failure; aborts the run

	// dispatch fills one training slot: draw a live client (the selector
	// beats heartbeats and skips FailureRate deaths), snapshot the current
	// global model and version, and hand the job to the system. The slot
	// refills itself from the job's Done callback, so concurrency is held
	// constant without any central timer.
	var dispatch func()
	dispatch = func() {
		if stopped {
			return
		}
		idx := p.sel.selectRound(p, rng, 1)
		if len(idx) == 0 {
			// Every contacted client died this pass; leave the slot empty
			// rather than spinning at the same virtual instant. If all
			// slots starve the engine idles and the run errors below.
			return
		}
		c := p.Pop.Client(idx[0])
		base := p.Asys.Version()
		global := p.Asys.Global()
		effRound := folded / cfg.ActivePerRound
		node := nextNode
		nextNode = (nextNode + 1) % cfg.Nodes
		p.Asys.Dispatch(systems.AsyncJob{
			ID:          p.clientID(idx[0]),
			Node:        node,
			Delay:       p.Pop.TrainTime(c),
			Weight:      float64(c.Samples),
			BaseVersion: base,
			MakeUpdate: func() *tensor.Tensor {
				return p.Pop.LocalUpdate(c, global, effRound)
			},
			Done: func() {
				if !cfg.StreamOnly {
					p.arrivals.note(int(p.Eng.Now() / sim.Minute))
				}
				dispatch()
			},
		})
	}

	// Version envelopes tile the virtual timeline: each one runs from the
	// previous bump's end to this bump's, so every buffer span lands inside
	// some envelope.
	var lastEnvEnd sim.Duration
	p.Asys.SetOnVersion(func(v systems.AsyncVersion) {
		now := time.Now()
		wall := now.Sub(lastBumpWall)
		lastBumpWall = now
		folded += v.Updates
		if reg := cfg.Telemetry; reg != nil {
			reg.Counter("core/versions", obs.Det).Inc()
			reg.Counter("core/updates", obs.Det).Add(uint64(v.Updates))
			reg.Counter("core/discarded", obs.Det).Add(uint64(v.Discarded))
			reg.Spans().Add(obs.Span{Actor: "version", Kind: obs.KindRound, Start: lastEnvEnd, End: v.End, Round: v.Version})
			lastEnvEnd = v.End
		}
		// Versions arrive one at a time, numbered from 1, so the
		// recorder's round count is the version. ACT keeps its documented
		// meaning (aggregation span ending at model install, evaluation
		// excluded): for a version it runs from the first surviving fold
		// to the merge.
		err := rec.Record(RoundObservation{
			Result: systems.RoundResult{
				Round:        v.Version,
				Start:        v.FirstFold,
				FirstArrival: v.FirstFold,
				End:          v.End,
				ACT:          v.Installed - v.FirstFold,
				Updates:      v.Updates,
				CPUTime:      v.CPUTime,
			},
			Acc:       AccPoint{Round: v.Version, Time: v.End, CPUTime: v.CPUTime, Accuracy: p.Curve.At(folded / cfg.ActivePerRound)},
			Wall:      wall,
			Discarded: v.Discarded,
		})
		if err != nil && sinkErr == nil {
			sinkErr = err
		}
		// Version folded and installed: retire records outside the
		// retention window (the async analogue of the round loop's
		// post-StepRound retirement).
		if rr := cfg.RetainRounds; rr > 0 {
			p.Asys.RetireRound(v.Version - rr)
		}
		if sinkErr != nil || rep.Reached || folded >= maxFolded {
			done, stopped = true, true
		}
	})

	for i := 0; i < spec.Concurrency; i++ {
		dispatch()
	}
	// Advance only until the outcome is decided; undrained events (uploads
	// in flight, keep-alive expiries) are abandoned exactly like the
	// synchronous loop abandons post-round bookkeeping.
	for !done && p.Eng.Step() {
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	if !done {
		return nil, errors.New("core: async run starved before deciding an outcome")
	}
	p.Asys.Finalize()
	rep.FinalGlobal = p.Asys.Global()
	if !cfg.StreamOnly {
		rep.ArrivalsPerMinute = p.arrivals.series()
	}
	rep.Elapsed = p.Eng.Now()
	rep.CPUTotal = p.Asys.CPUTime()
	rep.FailuresDetected = p.FailuresDetected
	rep.MeanStaleness = p.Asys.MeanStaleness()
	return rep, nil
}
