package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind labels match the paper's figure legend.
const (
	KindNetwork = "Network" // receiving/transferring model updates
	KindAgg     = "Agg"     // aggregation compute
	KindEval    = "Eval"    // post-round global model evaluation
	KindStartup = "Startup" // sandbox cold/warm start
	KindQueue   = "Queue"   // time spent queued before service
)

// Span is one task execution by one actor. It is the telemetry plane's
// span type: a Recorder is one producer feeding an obs.SpanLog, so the
// same spans a Gantt renders also drive the Perfetto export.
type Span = obs.Span

// Recorder accumulates spans. The zero value is ready to use: it
// lazily allocates a private bounded log on first Add. Point Log at a
// registry's Spans() log instead to share storage with the telemetry
// plane (core does this when RunConfig.Telemetry is set).
type Recorder struct {
	// Log is the backing span store; nil until first Add.
	Log *obs.SpanLog
}

// Add records a span. Safe on a nil recorder.
func (r *Recorder) Add(actor, kind string, start, end sim.Duration, round int) {
	if r == nil {
		return
	}
	if r.Log == nil {
		r.Log = &obs.SpanLog{}
	}
	r.Log.Add(Span{Actor: actor, Kind: kind, Start: start, End: end, Round: round})
}

// Spans returns the recorded spans (shared backing; callers must not
// mutate).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.Log.Spans()
}

// ByActor groups spans per actor, each sorted by start time.
func (r *Recorder) ByActor() map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range r.Spans() {
		out[s.Actor] = append(out[s.Actor], s)
	}
	for _, ss := range out {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	return out
}

// glyphs for rendering, one per kind.
var glyphs = map[string]rune{
	KindNetwork: '▒',
	KindAgg:     '█',
	KindEval:    '▓',
	KindStartup: '*',
	KindQueue:   '.',
}

// RenderGantt draws an ASCII timeline like Fig. 4 / Fig. 7(c): one row per
// actor, width columns spanning [0, horizon]. Actors render in the given
// order; actors with no spans still get a row.
func (r *Recorder) RenderGantt(actors []string, horizon sim.Duration, width int) string {
	if width <= 0 {
		width = 100
	}
	if horizon <= 0 {
		for _, s := range r.Spans() {
			if s.End > horizon {
				horizon = s.End
			}
		}
	}
	if horizon == 0 {
		horizon = sim.Second
	}
	byActor := r.ByActor()
	var b strings.Builder
	scale := float64(width) / float64(horizon)
	for _, a := range actors {
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range byActor[a] {
			g, ok := glyphs[s.Kind]
			if !ok {
				g = '?'
			}
			i0 := int(float64(s.Start) * scale)
			i1 := int(float64(s.End) * scale)
			if i1 <= i0 {
				i1 = i0 + 1
			}
			for i := i0; i < i1 && i < width; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "%-10s|%s|\n", a, string(row))
	}
	fmt.Fprintf(&b, "%-10s 0%sto %v   (%s=Network %s=Agg %s=Eval)\n",
		"", strings.Repeat(" ", width-20), horizon.Round(sim.Second),
		string(glyphs[KindNetwork]), string(glyphs[KindAgg]), string(glyphs[KindEval]))
	return b.String()
}
