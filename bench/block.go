package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names,
// units and directions, and adds each end-to-end metric's bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured on plain
// runs with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"updates_per_s", "1/s", "higher"},
	{"round_ms.p99", "ms", "lower"},
	{"mallocs_per_round", "count", "lower"},
	{"alloc_kb_per_round", "KiB", "lower"},
	{"resident_heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics. Layer times are shares of the
// round loop's wall time, so a layer a workload never calls reads 0%
// instead of a time; layerRow gives the same spans in µs per round.
var perLayer = []metricDef{
	{"round.mean_us", "us", "lower"},
	{"round_ms.p50", "ms", "lower"},
	{"round.unattributed_pct", "%", "lower"},
	{"core.prep_pct", "%", "lower"},
	{"core.record_pct", "%", "lower"},
	{"systems.run_round_pct", "%", "lower"},
	{"systems.playout_self_pct", "%", "lower"},
	{"systems.retire_pct", "%", "lower"},
	{"systems.dispatch_pct", "%", "lower"},
	{"flwork.local_update_pct", "%", "lower"},
	{"fedavg.install_pct", "%", "lower"},
	{"trajstore.observe_pct", "%", "lower"},
	{"cell.play_pct", "%", "lower"},
	{"cell.close_pct", "%", "lower"},
	{"systems.aggs_created_per_round", "count", "lower"},
	{"systems.aggs_active_per_round", "count", "lower"},
	{"systems.nodes_used_per_round", "count", "lower"},
	{"sim.pending_events", "count", "lower"},
	{"asyncfl.useful_frac", "ratio", "higher"},
	{"trajstore.bytes_per_round", "B", "lower"},
	{"cell.shares_per_round", "count", "higher"},
	{"cell.cross_cell_kb_per_round", "KiB", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"obs.snapshot_ms", "ms", "lower"},
	{"obs.spans_dropped", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles_per_round", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// pctLayers maps each layer-share metric to its layer; playout reports
// self time (play-out minus the install inside it), the rest span time.
var pctLayers = []struct {
	metric string
	l      layer
	self   bool
}{
	{"round.unattributed_pct", lRound, true},
	{"core.prep_pct", lPrep, false},
	{"core.record_pct", lRecord, false},
	{"systems.run_round_pct", lRunRound, false},
	{"systems.playout_self_pct", lPlayout, true},
	{"systems.retire_pct", lRetire, false},
	{"systems.dispatch_pct", lDispatch, false},
	{"flwork.local_update_pct", lLocalUpdate, false},
	{"fedavg.install_pct", lInstall, false},
	{"trajstore.observe_pct", lObserve, false},
	{"cell.play_pct", lCellPlay, false},
	{"cell.close_pct", lCellClose, false},
}

const (
	// minRuns is the fewest runs of each kind a block medians over.
	minRuns = 3
	// minRoundSamples pools enough rounds for round_ms.p99 to have ten
	// samples beyond it.
	minRoundSamples = 1000
	// maxBlock stops a block that cannot reach its minimums, so the
	// command ends within three minutes.
	maxBlock = 120 * time.Second
)

// block is one measurement of one workload at one seed: for the end-to-end
// metrics, plain runs repeated for the block's seconds; for the per-layer
// ones, cycles of a plain, a toggled and a traced run.
type block struct {
	w         *workload
	seed      int64
	runs      [numVariants][]*runResult
	attempted int
	failed    int
	errs      []string
}

// measureBlock runs w for at least `seconds` (and until the block's
// minimums are met), then cross-checks every run's digest.
func measureBlock(w *workload, seed int64, seconds int, layers bool, tmp string, pinned map[string]string) *block {
	b := &block{w: w, seed: seed}
	kinds := []variant{plain}
	if layers {
		kinds = []variant{plain, toggled, traced}
	}
	start := time.Now()
	for i := 0; b.failed == 0; i++ {
		b.execute(kinds[i%len(kinds)], tmp)
		el := time.Since(start)
		if el > maxBlock || (el >= time.Duration(seconds)*time.Second && b.enough(layers)) {
			break
		}
	}
	b.checkDigests(pinned)
	return b
}

// execute runs one full-length run of the block's workload and files it.
func (b *block) execute(v variant, tmp string) {
	b.attempted++
	r, err := execute(b.w, b.seed, 1, v, tmp)
	if err != nil {
		b.fail(1, "%s %s run %d: %v", b.w.name, variantName(v), b.attempted, err)
		return
	}
	b.runs[v] = append(b.runs[v], r)
}

func (b *block) enough(layers bool) bool {
	if layers {
		return len(b.runs[toggled]) >= minRuns && len(b.runs[traced]) >= minRuns
	}
	return len(b.runs[plain]) >= minRuns && b.roundSamples() >= minRoundSamples
}

func (b *block) roundSamples() int {
	n := 0
	for _, r := range b.runs[plain] {
		n += len(r.walls)
	}
	return n
}

func (b *block) fail(runs int, format string, args ...any) {
	b.failed += runs
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// checkDigests requires every plain and traced run to produce one
// digest, toggled runs to match it outside the telemetry snapshot, and that
// digest to equal the pinned one for the pinned seed.
func (b *block) checkDigests(pinned map[string]string) {
	ref := b.digest()
	if ref == "" {
		return
	}
	for _, v := range []variant{plain, traced} {
		for i, r := range b.runs[v] {
			if got := hexDigest(r.digest); got != ref {
				b.fail(1, "%s %s run %d digest %s, first run %s", b.w.name, variantName(v), i+1, got, ref)
			}
		}
	}
	core := b.runs[plain][0].coreDigest
	for i, r := range b.runs[toggled] {
		if r.coreDigest != core {
			b.fail(1, "%s telemetry-toggled run %d changed the report digest", b.w.name, i+1)
		}
	}
	if want, ok := pinned[b.w.name]; ok && b.seed == pinnedSeed && ref != want {
		runs := len(b.runs[plain]) + len(b.runs[traced])
		b.fail(runs, "%s seed %d digest %s, pinned %s in testdata/digests.json", b.w.name, b.seed, ref, want)
	}
}

// digest is the block's first plain run's digest ("" without one).
func (b *block) digest() string {
	if len(b.runs[plain]) == 0 {
		return ""
	}
	return hexDigest(b.runs[plain][0].digest)
}

func variantName(v variant) string {
	return [...]string{"plain", "telemetry-toggled", "traced"}[v]
}

// endToEndValues computes the end-to-end metrics: medians over the plain
// runs, and the p99 of their pooled rounds.
func (b *block) endToEndValues() (map[string]float64, error) {
	runs := b.runs[plain]
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: the block has no plain run", b.w.name)
	}
	col := func(f func(r *runResult) float64) float64 { return medianOf(runs, f) }
	p99, err := roundPercentile(runs, 99, 10)
	if err != nil {
		return nil, fmt.Errorf("%s round_ms.p99: %w", b.w.name, err)
	}
	return map[string]float64{
		"setup_s":            col(func(r *runResult) float64 { return r.setup.Seconds() }),
		"run_s":              col(func(r *runResult) float64 { return r.total.Seconds() }),
		"updates_per_s":      col(func(r *runResult) float64 { return float64(r.updates) / (r.total - r.setup).Seconds() }),
		"round_ms.p99":       p99,
		"mallocs_per_round":  col(func(r *runResult) float64 { return float64(r.mallocs) / float64(r.rounds) }),
		"alloc_kb_per_round": col(func(r *runResult) float64 { return float64(r.allocBytes) / 1024 / float64(r.rounds) }),
		"resident_heap_mb":   col(func(r *runResult) float64 { return r.liveHeap / (1 << 20) }),
	}, nil
}

// roundPercentile is the p-th percentile, in ms, of the runs' pooled round
// walls; it fails unless minBeyond samples lie beyond it.
func roundPercentile(runs []*runResult, p float64, minBeyond int) (float64, error) {
	var walls []float64
	for _, r := range runs {
		for _, d := range r.walls {
			walls = append(walls, d.Seconds()*1e3)
		}
	}
	return percentile(walls, p, minBeyond)
}

// layerRow is one layer's traced time: µs per round of span and self time,
// and the span time's share of the round loop.
type layerRow struct {
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	Pct     float64 `json:"pct"`
}

// perLayerValues computes the per-layer metrics: layer times from the
// traced runs, runtime and count metrics from the plain runs, and the
// overheads from the three variants' median run times.
func (b *block) perLayerValues() (map[string]float64, map[string]layerRow, error) {
	pl, tg, tr := b.runs[plain], b.runs[toggled], b.runs[traced]
	if len(pl) == 0 || len(tg) == 0 || len(tr) == 0 {
		return nil, nil, fmt.Errorf("%s: the per-layer pass needs a plain, a toggled and a traced run", b.w.name)
	}
	perRound := func(f func(r *runResult) float64) float64 {
		return medianOf(pl, func(r *runResult) float64 { return f(r) / float64(r.rounds) })
	}
	total := func(r *runResult) float64 { return r.total.Seconds() }

	// Each traced run's layer times: µs per round of span and self time,
	// and both as shares of the run's round-loop time.
	type runLayers struct{ us, selfUS, pct, selfPct [numLayers]float64 }
	per := make([]runLayers, len(tr))
	for i, r := range tr {
		lt := layerTimes(r.spans)
		loop, n := float64(lt[lRound].total), float64(r.rounds)
		for l, t := range lt {
			per[i].us[l] = float64(t.total) / 1e3 / n
			per[i].selfUS[l] = float64(t.self) / 1e3 / n
			per[i].pct[l] = 100 * float64(t.total) / loop
			per[i].selfPct[l] = 100 * float64(t.self) / loop
		}
	}
	layerMed := func(f func(x *runLayers) float64) float64 {
		xs := make([]float64, len(per))
		for i := range per {
			xs[i] = f(&per[i])
		}
		return median(xs)
	}
	p50, err := roundPercentile(pl, 50, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%s round_ms.p50: %w", b.w.name, err)
	}
	out := map[string]float64{
		"round.mean_us": layerMed(func(x *runLayers) float64 { return x.us[lRound] }),
		"round_ms.p50":  p50,
	}
	for _, p := range pctLayers {
		out[p.metric] = layerMed(func(x *runLayers) float64 {
			if p.self {
				return x.selfPct[p.l]
			}
			return x.pct[p.l]
		})
	}
	rows := map[string]layerRow{}
	for l := layer(0); l < numLayers; l++ {
		rows[layerNames[l]] = layerRow{
			TotalUS: layerMed(func(x *runLayers) float64 { return x.us[l] }),
			SelfUS:  layerMed(func(x *runLayers) float64 { return x.selfUS[l] }),
			Pct:     layerMed(func(x *runLayers) float64 { return x.pct[l] }),
		}
	}

	out["systems.aggs_created_per_round"] = perRound(func(r *runResult) float64 { return float64(r.aggsCreated) })
	out["systems.aggs_active_per_round"] = perRound(func(r *runResult) float64 { return float64(r.aggsActive) })
	out["systems.nodes_used_per_round"] = perRound(func(r *runResult) float64 { return float64(r.nodesUsed) })
	out["sim.pending_events"] = perRound(func(r *runResult) float64 { return float64(r.pend) })
	out["asyncfl.useful_frac"] = medianOf(pl, func(r *runResult) float64 {
		return float64(r.updates) / float64(r.updates+r.discarded)
	})
	out["trajstore.bytes_per_round"] = perRound(func(r *runResult) float64 { return float64(r.trajBytes) })
	out["cell.shares_per_round"] = perRound(func(r *runResult) float64 { return float64(r.shares) })
	out["cell.cross_cell_kb_per_round"] = perRound(func(r *runResult) float64 { return float64(r.crossCellBytes) / 1024 })
	out["runtime.gc_cpu_frac"] = medianOf(pl, func(r *runResult) float64 { return r.gcCPU / r.totalCPU })
	out["runtime.gc_cycles_per_round"] = perRound(func(r *runResult) float64 { return float64(r.gcCycles) })

	on, off := tg, pl
	if b.w.obs {
		on, off = pl, tg
	}
	out["obs.overhead_pct"] = 100 * (medianOf(on, total)/medianOf(off, total) - 1)
	out["obs.snapshot_ms"] = medianOf(on, func(r *runResult) float64 { return r.snapshot.Seconds() * 1e3 })
	out["obs.spans_dropped"] = medianOf(on, func(r *runResult) float64 { return float64(r.spansDropped) })
	out["trace.overhead_pct"] = 100 * (medianOf(tr, total)/medianOf(pl, total) - 1)
	return out, rows, nil
}

// medianOf is the median of f over runs.
func medianOf(runs []*runResult, f func(r *runResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// writeTrace writes the block's first traced run as dir/<workload>.trace.json.
func (b *block) writeTrace(dir string) error {
	if len(b.runs[traced]) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.w.name+".trace.json"), perfettoTrace(b.runs[traced][0].spans), 0o644)
}
