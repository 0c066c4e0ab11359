package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tensor"
)

// The traced run wraps the layer seams the platform already exposes —
// Platform.Sys, Platform.Asys, RunConfig.ServerOpt, RunConfig.Trajectory
// and RunConfig.OnRound — with pass-through wrappers that time each call.
// Nothing inside the program is instrumented, so a wrapper sees a layer
// only where the round loop calls across one of these seams; the fabric's
// cells, for instance, are reachable only through the global ServerOpt and
// OnRound.

// layer names one kind of span. Every span's parent is its round's span.
type layer uint8

const (
	lRound       layer = iota // one round (async: one version), hook to hook
	lPrep                     // round start → RunRound; async: Done → Dispatch
	lRunRound                 // the Sys.RunRound call
	lPlayout                  // RunRound return → its done callback
	lInstall                  // the ServerOpt.Apply call
	lRetire                   // the RetireRound call
	lRecord                   // RetireRound return (async: version bump) → OnRound
	lObserve                  // the trajectory Sink.Observe call
	lDispatch                 // the Asys.Dispatch call
	lLocalUpdate              // an async job's MakeUpdate call
	lCellPlay                 // fabric round start → the global ServerOpt.Apply
	lCellClose                // fabric ServerOpt.Apply return → OnRound
	numLayers
)

var layerNames = [numLayers]string{
	"round", "core.prep", "systems.run_round", "systems.playout", "fedavg.install",
	"systems.retire", "core.record", "trajstore.observe", "systems.dispatch",
	"flwork.local_update", "cell.play", "cell.close",
}

// span is one timed interval, in nanoseconds since the run call.
type span struct {
	start, end int64
	round      int32
	layer      layer
}

// recorder appends spans to a slice preallocated for the whole run. All
// wrappers run on the round loop's goroutine, so it needs no locking.
type recorder struct {
	shape shape
	// endOnObserve: the trajectory sink is the round's last hook.
	endOnObserve bool
	t0           time.Time
	spans        []span
	round        int32 // the round in progress, from 1
	roundStart   int64
	// Seam timestamps of the round in progress.
	retireEnd            int64
	applyStart, applyEnd int64
	bumpAt               int64 // async: version bump entered core
	doneAt               int64 // async: a job's Done is running; -1 otherwise
}

func newRecorder(w *workload, rounds int) *recorder {
	perRound := 8
	if w.shape == shapeAsync {
		// A version folds BufferK=10 updates: a prep, a dispatch and a
		// local update span each, plus the version's own spans.
		perRound = 40
	}
	return &recorder{
		shape:        w.shape,
		endOnObserve: w.traj && w.shape != shapeAsync,
		spans:        make([]span, 0, rounds*perRound+256),
		round:        1,
		doneAt:       -1,
	}
}

func (r *recorder) start(t0 time.Time) { r.t0 = t0 }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(l layer, start, end int64) {
	r.spans = append(r.spans, span{start: start, end: end, round: r.round, layer: l})
}

func (r *recorder) endRound(end int64) {
	r.add(lRound, r.roundStart, end)
	r.round++
	r.roundStart = end
}

// wrap installs the system wrappers on a freshly built platform and marks
// the start of round 1 (the Run call follows immediately).
func (r *recorder) wrap(p *core.Platform) {
	if p.Sys != nil {
		p.Sys = &tracedService{Service: p.Sys, rec: r}
	}
	if p.Asys != nil {
		p.Asys = &tracedAsync{AsyncService: p.Asys, rec: r}
	}
	r.roundStart = r.now()
}

// onRound runs at OnRound entry: it closes the gap spans that end there
// and, unless a later hook follows, the round itself.
func (r *recorder) onRound(wall time.Duration) {
	t := r.now()
	switch r.shape {
	case shapeSync:
		r.add(lRecord, r.retireEnd, t)
	case shapeAsync:
		r.add(lRecord, r.bumpAt, t)
	case shapeFabric:
		if r.round == 1 {
			// Round 1 starts after cell.Run's fabric assembly, which
			// is set-up; the round's own Wall says where.
			r.roundStart = t - int64(wall)
		}
		r.add(lCellPlay, r.roundStart, r.applyStart)
		r.add(lCellClose, r.applyEnd, t)
	}
	if r.shape != shapeAsync && !r.endOnObserve {
		r.endRound(r.now())
	}
}

// tracedService wraps a synchronous system.
type tracedService struct {
	systems.Service
	rec *recorder
}

func (s *tracedService) RunRound(round int, jobs []systems.ClientJob, done func(systems.RoundResult)) {
	r := s.rec
	start := r.now()
	r.add(lPrep, r.roundStart, start)
	end := int64(-1)
	s.Service.RunRound(round, jobs, func(res systems.RoundResult) {
		if end >= 0 {
			r.add(lPlayout, end, r.now())
		}
		done(res)
	})
	end = r.now()
	r.add(lRunRound, start, end)
}

func (s *tracedService) RetireRound(last int) {
	r := s.rec
	start := r.now()
	s.Service.RetireRound(last)
	r.retireEnd = r.now()
	r.add(lRetire, start, r.retireEnd)
}

// tracedAsync wraps the buffered-async system. The version bump callback
// is the round's frame: core's per-version bookkeeping, OnRound and
// RetireRound all run inside it.
type tracedAsync struct {
	systems.AsyncService
	rec *recorder
}

func (s *tracedAsync) Dispatch(job systems.AsyncJob) {
	r := s.rec
	start := r.now()
	if r.doneAt >= 0 {
		r.add(lPrep, r.doneAt, start)
		r.doneAt = -1
	}
	if mk := job.MakeUpdate; mk != nil {
		job.MakeUpdate = func() *tensor.Tensor {
			t := r.now()
			u := mk()
			r.add(lLocalUpdate, t, r.now())
			return u
		}
	}
	if done := job.Done; done != nil {
		job.Done = func() {
			r.doneAt = r.now()
			done()
			r.doneAt = -1
		}
	}
	s.AsyncService.Dispatch(job)
	r.add(lDispatch, start, r.now())
}

func (s *tracedAsync) SetOnVersion(fn func(systems.AsyncVersion)) {
	r := s.rec
	s.AsyncService.SetOnVersion(func(v systems.AsyncVersion) {
		r.bumpAt = r.now()
		fn(v)
		r.endRound(r.now())
	})
}

func (s *tracedAsync) RetireRound(last int) {
	r := s.rec
	start := r.now()
	s.AsyncService.RetireRound(last)
	r.add(lRetire, start, r.now())
}

// tracedOpt wraps the server optimizer: the model install of a core round,
// or the fabric's global-tier install.
type tracedOpt struct {
	fedavg.ServerOpt
	rec *recorder
}

func (o *tracedOpt) Apply(global, aggregate *tensor.Tensor) (*tensor.Tensor, error) {
	r := o.rec
	start := r.now()
	next, err := o.ServerOpt.Apply(global, aggregate)
	end := r.now()
	r.add(lInstall, start, end)
	r.applyStart, r.applyEnd = start, end
	return next, err
}

// tracedSink wraps the trajectory sink, the last hook of a round that has
// one.
type tracedSink struct {
	core.TrajectorySink
	rec *recorder
}

func (s *tracedSink) Observe(ob core.RoundObservation) error {
	r := s.rec
	start := r.now()
	err := s.TrajectorySink.Observe(ob)
	end := r.now()
	r.add(lObserve, start, end)
	if r.endOnObserve {
		r.endRound(end)
	}
	return err
}

// layerTime is one layer's summed time over a run: total span time and
// self time, which leaves out the time its child spans cover.
type layerTime struct {
	total, self int64
}

// layerTimes sums span and self time per layer. Spans from one goroutine
// nest without partial overlap, so after sorting by start (longest first
// on ties) a stack of open spans gives each span's parent. The round
// span's self time is the part of the round no wrapper saw.
func layerTimes(spans []span) [numLayers]layerTime {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.start != y.start {
			return x.start < y.start
		}
		if x.end != y.end {
			return x.end > y.end
		}
		return x.layer < y.layer
	})
	child := make([]int64, len(spans))
	var stack []int
	for _, i := range order {
		s := spans[i]
		// s starts inside or after the top span; it is a child iff it
		// also ends inside it.
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += s.end - s.start
		}
		stack = append(stack, i)
	}
	var out [numLayers]layerTime
	for i, s := range spans {
		d := s.end - s.start
		out[s.layer].total += d
		out[s.layer].self += d - child[i]
	}
	return out
}

// perfettoTrace renders a traced run's spans as Chrome trace_event JSON
// (the wall-clock process of obs.PerfettoTrace), one thread per layer.
func perfettoTrace(spans []span) []byte {
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		kind := layerNames[s.layer]
		if s.layer == lRound {
			kind = obs.KindRound
		}
		out[i] = obs.Span{Actor: layerNames[s.layer], Kind: kind, Start: sim.Duration(s.start), End: sim.Duration(s.end), Round: int(s.round)}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return obs.PerfettoTrace(nil, out)
}
