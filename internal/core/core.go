package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coordinator"
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// SystemKind selects the system under test.
type SystemKind string

// The four synchronous systems of §6, plus the buffered-async system of
// Fig. 11 (Appendix A).
const (
	SystemLIFL SystemKind = "lifl" // full LIFL (all flags)
	SystemSLH  SystemKind = "slh"  // LIFL data plane, conventional control plane
	SystemSF   SystemKind = "sf"   // serverful baseline
	SystemSL   SystemKind = "sl"   // serverless baseline
	// SystemAsync is the fifth system: LIFL's event-driven data plane
	// driving FedBuff-style buffered-async aggregation — no rounds, a
	// fixed training concurrency, staleness-weighted merges per version.
	// Tuned by RunConfig.Async; driven by the event-driven progress loop
	// in async.go instead of the synchronous round loop.
	SystemAsync SystemKind = "async"
)

// DefaultRetainRounds is the default control-plane record retention
// window (RunConfig.RetainRounds): the newest two rounds' records stay
// live, which covers mid-round failover replay (current round) and the
// cell fabric's wait-all replay of an interrupted round (previous round's
// global is still installed when the replay starts).
const DefaultRetainRounds = 2

// SelectorKind picks the per-round client sampling algorithm.
type SelectorKind string

// The two selectors. Both draw uniform ActivePerRound-subsets; they differ
// in cost and in the RNG draw sequence (so their schedules differ for the
// same seed — see DESIGN.md's selector determinism contract).
const (
	// SelectPerm is the default: a full rng.Perm over the population each
	// round — O(population) per round, bit-identical to the seed behaviour
	// the paper figures were calibrated against.
	SelectPerm SelectorKind = "perm"
	// SelectStream is the large-scale selector: an incremental partial
	// Fisher–Yates over a persistent index pool — O(ActivePerRound) work
	// per round after a one-time O(population) setup, flat in population
	// size (BenchmarkSelectStream1M).
	SelectStream SelectorKind = "stream"
)

// InjectSpec replaces population-driven rounds with Fig. 8-style injected
// batches: Updates synthetic model updates arrive directly at the
// aggregation service (no broadcast, pre-queued), spread over Window.
type InjectSpec struct {
	Updates int
	// Window defaults to Updates × 200 ms, the §5.4-motivated spread the
	// Fig. 8 microbenchmark uses.
	Window sim.Duration
	// Weight is the FedAvg weight per injected update (default 1).
	Weight float64
}

// AsyncSpec tunes the buffered-async system (SystemAsync). The zero value
// defers every knob: buffer 10, concurrency ActivePerRound, no staleness
// damping, adopt-the-mean merges.
type AsyncSpec struct {
	// BufferK is the FedBuff buffer size K: updates folded per version
	// bump (default 10).
	BufferK int
	// Concurrency is the number of clients kept training at all times —
	// the async analogue of ActivePerRound, which it defaults to.
	Concurrency int
	// StalenessHalfLife damps an update trained s versions ago by
	// 2^(−s/HalfLife); 0 disables damping.
	StalenessHalfLife float64
	// MaxStaleness, when > 0, discards updates staler than this many
	// versions outright.
	MaxStaleness int
	// MixRate is the server mixing rate η of the per-version ScaleAdd
	// merge next = (1−η)·global + η·bufferMean; 0 defaults to 1 (adopt).
	MixRate float64
}

// validate rejects knobs that would otherwise surface as mid-run panics
// (an aggcore goal of -1, a Merger mix outside (0, 1]) — construction-time
// errors, like the Flags/Inject misuse checks beside it in NewPlatform.
func (a AsyncSpec) validate() error {
	if a.BufferK < 0 {
		return fmt.Errorf("core: async BufferK %d must be >= 0", a.BufferK)
	}
	if a.Concurrency < 0 {
		return fmt.Errorf("core: async Concurrency %d must be >= 0", a.Concurrency)
	}
	if a.MaxStaleness < 0 {
		return fmt.Errorf("core: async MaxStaleness %d must be >= 0", a.MaxStaleness)
	}
	if a.MixRate < 0 || a.MixRate > 1 {
		return fmt.Errorf("core: async MixRate %v outside [0, 1] (0 = adopt)", a.MixRate)
	}
	return nil
}

// CellSpec federates a run across K locality-routed cells (internal/cell):
// independent clusters, each running its own aggregation hierarchy over the
// clients the locality router homes on it, stitched together by a per-round
// cross-cell aggregation tier. Core only validates the knobs; the fabric
// itself lives above core in internal/cell (harness sweeps dispatch there
// automatically, and core.Run rejects a cell config loudly).
type CellSpec struct {
	// Count is the number of cells K (>= 1). K = 1 degenerates to the
	// plain single-cluster run and is byte-identical to it for a fixed
	// seed — the invariant TestFabricK1MatchesPlainRun pins down.
	Count int
	// Regions weight the locality router's client → home-cell draw
	// (region i is homed on cell i). nil = uniform across Count cells;
	// otherwise exactly Count non-negative entries with a positive sum.
	Regions []float64
	// RTT is the inter-cell round-trip time; 0 takes the costmodel
	// default (Params.InterCellRTT).
	RTT sim.Duration
	// Bandwidth is the inter-cell link rate in bytes/sec per direction;
	// 0 takes Params.InterCellBandwidth.
	Bandwidth float64
	// Quorum is the straggler-cell policy, and it bites only when a cell
	// goes silent: healthy rounds always wait for every live cell. With
	// Quorum > 0 an outage round closes over the live cells alone
	// (provided at least Quorum of them), the dead cell's partial round is
	// discarded, and its clients re-route to the survivors; with 0
	// (wait-all) the round blocks until a replacement is restored from the
	// dead cell's last durable checkpoint and its replayed round delivers.
	Quorum int
	// OutageRound, when > 0, kills cell OutageCell at that global round's
	// start: its heartbeats stop and the fabric's monitor declares it dead
	// one sweep after the timeout. Under a quorum the dead cell's partial
	// round is discarded and its clients re-route to the surviving cells;
	// under wait-all the cell is restored from its last durable checkpoint
	// and the interrupted round is replayed on the replacement.
	OutageRound int
	// OutageCell indexes the cell OutageRound kills.
	OutageCell int
	// CheckpointRounds overrides Params.CheckpointPeriodRounds for the
	// per-cell model checkpoint cadence (0 = keep the params value).
	CheckpointRounds int
}

// Validate rejects fabric knobs that would otherwise surface as mid-run
// panics or silently absurd topologies — construction-time errors, like
// AsyncSpec.validate beside it.
func (s CellSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("core: cell Count %d must be >= 1", s.Count)
	}
	if s.Regions != nil {
		if len(s.Regions) != s.Count {
			return fmt.Errorf("core: %d region weights for %d cells", len(s.Regions), s.Count)
		}
		total := 0.0
		for _, w := range s.Regions {
			if w < 0 {
				return fmt.Errorf("core: negative region weight %v", w)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("core: region weights sum to %v (need > 0)", total)
		}
	}
	if s.Quorum < 0 || s.Quorum > s.Count {
		return fmt.Errorf("core: cell Quorum %d outside [0, %d]", s.Quorum, s.Count)
	}
	if s.RTT < 0 || s.Bandwidth < 0 || s.CheckpointRounds < 0 {
		return fmt.Errorf("core: negative cell RTT/Bandwidth/CheckpointRounds")
	}
	if s.OutageRound < 0 {
		return fmt.Errorf("core: cell OutageRound %d must be >= 0", s.OutageRound)
	}
	if s.OutageRound > 0 {
		if s.OutageCell < 0 || s.OutageCell >= s.Count {
			return fmt.Errorf("core: OutageCell %d outside [0, %d)", s.OutageCell, s.Count)
		}
		if s.Count < 2 {
			return fmt.Errorf("core: a cell outage needs at least one surviving cell (Count %d)", s.Count)
		}
		if s.Quorum > s.Count-1 {
			return fmt.Errorf("core: Quorum %d unreachable after the cell %d outage", s.Quorum, s.OutageCell)
		}
	}
	return nil
}

// RoundObservation is delivered to RunConfig.OnRound after each round.
type RoundObservation struct {
	Result systems.RoundResult
	Acc    AccPoint
	// Wall is the real (not simulated) time this round's simulation took —
	// the per-round sample the perf-trajectory layer aggregates.
	Wall time.Duration
	// Discarded counts async updates this version dropped at the staleness
	// cutoff (zero for synchronous rounds).
	Discarded int
	// Shares is the cross-cell share quota folded into a fabric round
	// (zero outside multi-cell runs).
	Shares int
}

// TrajectorySink receives every RoundObservation of a run, in order, for
// durable storage (internal/trajstore is the canonical implementation).
// Unlike OnRound — a best-effort callback — a sink error aborts the run:
// a trajectory that silently lost rounds is worse than no trajectory.
// Sinks compose with StreamOnly, which is how a million-round run keeps a
// lean Report and a complete, replayable history at once.
type TrajectorySink interface {
	Observe(RoundObservation) error
}

// RunConfig parameterizes a full FL training run (the Fig. 9/10 workloads).
type RunConfig struct {
	System SystemKind
	Model  model.Spec
	// Clients is the total population (the paper: 2,800 from FedScale).
	Clients int
	// ActivePerRound is the number of simultaneously active clients
	// (120 for ResNet-18, 15 for ResNet-152).
	ActivePerRound int
	// Class selects mobile (hibernating) or server (always-on) clients.
	Class flwork.ClientClass
	// TargetAccuracy stops the run when reached (the paper uses 0.70).
	TargetAccuracy float64
	// MaxRounds bounds the run regardless of accuracy.
	MaxRounds int
	// Nodes is the aggregation-service node count (paper: 5).
	Nodes int
	// MC is per-node max service capacity (Appendix E).
	MC   float64
	Seed int64
	// Workers bounds the goroutine pool the staged round loop may use for
	// its parallel stages (population synthesis, update materialization,
	// the sharded aggregation fold; see stages.go). 0 or 1 runs every
	// stage serially. The Report is byte-identical for ANY value — the
	// parallel stages are pure per-element work on fixed shard boundaries,
	// and every RNG draw stays serial — so Workers is a wall-clock knob,
	// never a semantics knob.
	Workers int
	// RetainRounds is the control-plane record retention window: after
	// round r closes, the round loop retires every record belonging to
	// rounds <= r − RetainRounds (Service.RetireRound; the async loop
	// retires by folded version), keeping the newest RetainRounds rounds'
	// records live for mid-round failover replay and the cell fabric's
	// wait-all checkpoint-restore. 0 means DefaultRetainRounds; negative
	// disables eviction entirely — the pre-eviction behaviour, whose live
	// heap grows linearly with round count on the serverless systems.
	// Eviction is bookkeeping, not schedule: the Report is byte-identical
	// for ANY value, including eviction off.
	RetainRounds int
	// FailureRate is the probability a selected client dies mid-round
	// (battery, lost connectivity). Failures are detected by keep-alive
	// heartbeats (§3) and covered by over-provisioned standbys, so rounds
	// still aggregate ActivePerRound updates.
	FailureRate float64
	// Params overrides the platform cost model (zero = Default()).
	Params costmodel.Params
	// Flags overrides LIFL's ablation switches (LIFL default: all on).
	// Only SystemLIFL honours them; NewPlatform rejects Flags on any other
	// system instead of silently dropping them.
	Flags *systems.Flags
	// Selector picks the client sampling algorithm (default SelectPerm).
	Selector SelectorKind
	// Inject, when set, runs injected single-batch rounds instead of
	// population-driven ones (the Fig. 8 microbenchmark mode); rounds are
	// numbered from 0 and MaxRounds defaults to 1.
	Inject *InjectSpec
	// Cells, when set, federates the run across Count locality-routed
	// cells with a per-round cross-cell aggregation tier (the sixth
	// deployment shape). The fabric lives above core: harness sweeps and
	// the scenario registry dispatch cell configs to internal/cell, and
	// core.Run itself rejects them rather than silently running a single
	// cluster. Only synchronous per-cell systems are federated today.
	Cells *CellSpec
	// CellPlan schedules live fabric reconfiguration — round-stamped
	// join/drain/weight-change config pushes applied atomically at round
	// starts (internal/cell.Reconfigure). Requires Cells; a plan with no
	// steps is equivalent to no plan at all (byte-identical run). An
	// invalid plan is rejected wholesale before the first round and the
	// run proceeds exactly as if no plan were configured (last-known-good
	// semantics), with the rejection recorded in the cell Detail.
	CellPlan *CellPlan
	// Async tunes the buffered-async system; only SystemAsync honours it
	// (NewPlatform rejects it on synchronous systems). For SystemAsync a
	// nil Async takes every default. Async runs reuse the round-oriented
	// knobs: ActivePerRound defaults the training concurrency, MaxRounds
	// bounds the run at MaxRounds×ActivePerRound folded updates, and the
	// Selector defaults to SelectStream (O(1) per dispatch).
	Async *AsyncSpec
	// ServerOpt post-processes each round's aggregate into the next global
	// model (default fedavg.Adopt — plain FedAvg). Stateful optimizers
	// (fedavg.FedAvgM) carry per-run state: give every run its own
	// instance — sharing one across repeated or concurrent runs
	// warm-starts/races the optimizer state.
	ServerOpt fedavg.ServerOpt
	// OnRound, when set, observes every completed round as it happens.
	OnRound func(RoundObservation)
	// Trajectory, when set, durably stores every completed round's
	// observation; a sink error aborts the run. The caller owns the sink's
	// lifecycle (Close after Run returns).
	Trajectory TrajectorySink
	// Milestones lists accuracy levels whose first crossings are exported in
	// Report.Milestones (the machine-readable time-to-accuracy trajectory).
	// Levels are visited in ascending order; unsorted input is sorted.
	// Milestone capture is simulated-time only, so it is deterministic and
	// survives StreamOnly runs.
	Milestones []float64
	// StreamOnly keeps the Report lean for very long or very large runs:
	// per-round slices (Rounds, Acc, ActiveAggs, CPUPerRound) and the
	// arrival series are not accumulated — pair with OnRound to stream
	// observations instead. Scalar outcomes are still reported.
	StreamOnly bool
	// Tracer, when set, records task spans.
	Tracer *trace.Recorder
	// Telemetry, when set, receives the run's counters, gauges, histograms
	// and span logs (see internal/obs). Off by default — a nil registry
	// keeps every instrumented site a no-op. When Telemetry is set and
	// Tracer is nil, NewPlatform wires a trace.Recorder over the registry's
	// span log so system task spans land in the same telemetry plane.
	Telemetry *obs.Registry
}

func (c RunConfig) withDefaults() RunConfig {
	if c.System == "" {
		c.System = SystemLIFL
	}
	if c.Model.Params == 0 {
		c.Model = model.ResNet18
	}
	if c.Clients == 0 && c.Inject == nil {
		// Injected runs never touch the population; leave it empty so
		// Fig. 8-style grids don't pay 2,800 client synthesses per cell.
		c.Clients = 2800
	}
	if c.ActivePerRound == 0 {
		c.ActivePerRound = 120
	}
	if c.TargetAccuracy == 0 {
		c.TargetAccuracy = 0.70
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 500
		if c.Inject != nil {
			c.MaxRounds = 1
		}
	}
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.MC == 0 {
		c.MC = 20
	}
	if c.Params.CoresPerNode == 0 {
		c.Params = costmodel.Default()
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.RetainRounds == 0 {
		c.RetainRounds = DefaultRetainRounds
	}
	if c.System == SystemAsync {
		a := AsyncSpec{}
		if c.Async != nil {
			a = *c.Async
		}
		if a.BufferK == 0 {
			a.BufferK = 10
		}
		if a.Concurrency == 0 {
			a.Concurrency = c.ActivePerRound
		}
		c.Async = &a
		// Async dispatches clients one at a time as slots free; only the
		// streaming selector is O(1) per draw, so it is the async default.
		if c.Selector == "" {
			c.Selector = SelectStream
		}
	}
	if c.Selector == "" {
		c.Selector = SelectPerm
	}
	if c.ServerOpt == nil {
		c.ServerOpt = fedavg.Adopt{}
	}
	if c.Inject != nil {
		i := *c.Inject
		if i.Window == 0 {
			i.Window = sim.Duration(i.Updates) * 200 * sim.Millisecond
		}
		if i.Weight == 0 {
			i.Weight = 1
		}
		c.Inject = &i
	}
	return c
}

// Defaulted returns the config with core's defaulting rules applied — the
// exact values NewPlatform would run with. The cell fabric (internal/cell)
// uses it to resolve population and round knobs *before* sharding them into
// per-cell configs, so fabric math and platform behaviour can never drift.
func (c RunConfig) Defaulted() RunConfig { return c.withDefaults() }

// AccPoint is one point of the accuracy trajectory.
type AccPoint struct {
	Round    int
	Time     sim.Duration
	CPUTime  sim.Duration
	Accuracy float64
}

// MilestoneHit records the first round at which the accuracy trajectory
// crossed one requested milestone level.
type MilestoneHit struct {
	// Target is the requested level (At.Accuracy is the accuracy actually
	// observed at the crossing round, >= Target).
	Target float64
	At     AccPoint
}

// Report is the outcome of a training run.
type Report struct {
	System SystemKind
	Model  model.Spec
	Rounds []systems.RoundResult
	Acc    []AccPoint
	// TimeToTarget and CPUToTarget are wall-clock and cumulative CPU cost
	// at the round where accuracy first crossed the target (zero if never).
	TimeToTarget sim.Duration
	CPUToTarget  sim.Duration
	Reached      bool
	// ArrivalsPerMinute is the Fig. 10(a,d) series.
	ArrivalsPerMinute []float64
	// ActiveAggs samples instances per round (Fig. 10(b,e)).
	ActiveAggs []int
	// CPUPerRound is CPU seconds per round (Fig. 10(c,f)).
	CPUPerRound []float64
	// FinalGlobal is the trained model.
	FinalGlobal *tensor.Tensor
	// Milestones holds the first crossing of each RunConfig.Milestones
	// level that was reached, in ascending target order (simulated time —
	// deterministic; survives StreamOnly).
	Milestones []MilestoneHit
	// RoundWallTotal and RoundWallMax are real wall-clock measurements of
	// the simulation loop itself (how long this process took to simulate
	// the rounds, not simulated time) — the quantities liflbench tracks.
	RoundWallTotal time.Duration
	RoundWallMax   time.Duration
	// The scalar outcomes below survive StreamOnly runs, where the
	// per-round slices above are left empty.
	// RoundsRun counts completed rounds.
	RoundsRun int
	// Elapsed is the simulated wall clock at the end of the run.
	Elapsed sim.Duration
	// CPUTotal is the system's cumulative CPU cost at the end of the run.
	CPUTotal sim.Duration
	// FailuresDetected counts clients the heartbeat monitor declared dead.
	FailuresDetected int
	// MeanStaleness is the buffered-async mean version lag of folded
	// updates (always zero for synchronous runs, where every update is
	// trained against the round's own global model). For async runs,
	// RoundsRun counts versions and each Acc point's Round is a version.
	MeanStaleness float64
	// UpdatesDiscarded counts async updates dropped by the staleness
	// cutoff (zero for synchronous runs).
	UpdatesDiscarded int
}

// Platform couples an engine, a system and a population.
type Platform struct {
	Cfg RunConfig
	Eng *sim.Engine
	// Sys is the synchronous system under test; nil for SystemAsync runs,
	// which drive Asys through the event-driven loop in async.go instead.
	Sys   systems.Service
	Asys  systems.AsyncService
	Pop   *flwork.Population
	Curve flwork.Curve

	// Beats tracks client keep-alives; FailuresDetected counts clients the
	// monitor declared dead across the run.
	Beats            *coordinator.Heartbeats
	FailuresDetected int

	sel      roundSelector
	arrivals arrivalMeter
	// wallBase anchors opt-in wall-clock stage spans: span offsets are
	// nanoseconds since platform construction.
	wallBase time.Time
	// arena backs the staged round loop's parallel update
	// materialization — one reusable tensor per aggregation slot, recycled
	// every round (see stages.go).
	arena []*tensor.Tensor
}

// NewPlatform assembles everything for a run.
func NewPlatform(cfg RunConfig) (*Platform, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: Workers must be >= 1 (got %d)", cfg.Workers)
	}
	eng := sim.NewEngine()
	// With a telemetry registry but no explicit tracer, record system task
	// spans straight into the registry's span log (root registries only;
	// Sub views return a nil log and stay tracer-less).
	if cfg.Telemetry != nil && cfg.Tracer == nil {
		if log := cfg.Telemetry.Spans(); log != nil {
			cfg.Tracer = &trace.Recorder{Log: log}
		}
	}
	scfg := systems.Config{
		Nodes:     cfg.Nodes,
		Model:     cfg.Model,
		Params:    cfg.Params,
		Seed:      cfg.Seed,
		MC:        cfg.MC,
		Workers:   cfg.Workers,
		ServerOpt: cfg.ServerOpt,
		Tracer:    cfg.Tracer,
		Obs:       cfg.Telemetry,
	}
	if cfg.Cells != nil {
		// A cell config reaching the single-cluster assembly would run one
		// cluster with a straight face; the fabric (internal/cell) strips
		// Cells from the per-cell configs it builds, so anything arriving
		// here took a wrong turn.
		return nil, fmt.Errorf("core: Cells is a multi-cell fabric knob; run it through internal/cell (harness sweeps dispatch there automatically)")
	}
	if cfg.CellPlan != nil {
		// Without a Cells spec there is no fabric to reconfigure; dropping
		// the plan silently would run a static cluster under an operator
		// who believes cells are joining and draining.
		return nil, fmt.Errorf("core: CellPlan requires a Cells spec (the plan reconfigures the multi-cell fabric)")
	}
	if cfg.Async != nil && cfg.System != SystemAsync {
		// Silently dropping async knobs would turn an async sweep cell
		// into a synchronous run with a straight face.
		return nil, fmt.Errorf("core: %s does not take Async knobs (only %s does)", cfg.System, SystemAsync)
	}
	var sys systems.Service
	var asys systems.AsyncService
	switch cfg.System {
	case SystemAsync:
		if cfg.Flags != nil {
			return nil, fmt.Errorf("core: %s does not take orchestration Flags (only %s does)", cfg.System, SystemLIFL)
		}
		if cfg.Inject != nil {
			return nil, fmt.Errorf("core: %s has no rounds to inject into (use Loads with a synchronous system)", cfg.System)
		}
		if err := cfg.Async.validate(); err != nil {
			return nil, err
		}
		scfg.Async = systems.AsyncParams{
			BufferK:           cfg.Async.BufferK,
			StalenessHalfLife: cfg.Async.StalenessHalfLife,
			MaxStaleness:      cfg.Async.MaxStaleness,
			MixRate:           cfg.Async.MixRate,
		}
		asys = systems.NewAsync(eng, scfg)
	case SystemLIFL:
		scfg.Flags = systems.AllFlags()
		if cfg.Flags != nil {
			scfg.Flags = *cfg.Flags
		}
		sys = systems.NewLIFL(eng, scfg)
	case SystemSLH, SystemSF, SystemSL:
		if cfg.Flags != nil {
			// The ablation switches only exist on the LIFL assembly;
			// dropping them silently would turn a caller's ablation sweep
			// into identical baseline runs.
			return nil, fmt.Errorf("core: %s does not take orchestration Flags (only %s does)", cfg.System, SystemLIFL)
		}
		switch cfg.System {
		case SystemSLH:
			sys = systems.NewLIFL(eng, scfg) // zero Flags = SL-H
		case SystemSF:
			// Static fleet sized for peak concurrency with leaf fan-in 2.
			scfg.SFLeaves = (cfg.ActivePerRound + 1) / 2
			sys = systems.NewSF(eng, scfg)
		case SystemSL:
			sys = systems.NewSL(eng, scfg)
		}
	default:
		return nil, fmt.Errorf("core: unknown system %q", cfg.System)
	}
	sel, err := newSelector(cfg.Selector)
	if err != nil {
		return nil, err
	}
	pop := flwork.NewPopulation(eng, flwork.Config{
		NumClients: cfg.Clients,
		Model:      cfg.Model,
		Class:      cfg.Class,
		Seed:       cfg.Seed + 1,
		Workers:    cfg.Workers,
	})
	return &Platform{
		Cfg:      cfg,
		Eng:      eng,
		Sys:      sys,
		Asys:     asys,
		Pop:      pop,
		Curve:    flwork.CurveFor(cfg.Model),
		Beats:    coordinator.NewHeartbeats(eng, cfg.Params.HeartbeatTimeout),
		sel:      sel,
		wallBase: time.Now(),
	}, nil
}

// Run executes rounds until the accuracy target or MaxRounds. Async runs
// have no rounds; they divert to the event-driven loop in async.go.
func (p *Platform) Run() (*Report, error) {
	if p.Cfg.System == SystemAsync {
		return p.runAsync()
	}
	cfg := p.Cfg
	rng := sim.NewRNG(cfg.Seed + 2)
	rec := NewRecorder(cfg, p.Sys.ActiveAggregators)
	rep := rec.Report
	// Injected (Fig. 8-style) runs number rounds from 0, matching the
	// microbenchmark's original single-round harness.
	first, last := 1, cfg.MaxRounds
	if cfg.Inject != nil {
		first, last = 0, cfg.MaxRounds-1
	}
	for r := first; r <= last; r++ {
		result, roundWall, err := p.StepRound(rng, r, 0)
		if err != nil {
			return nil, err
		}
		point := AccPoint{Round: r, Time: p.Eng.Now(), CPUTime: p.Sys.CPUTime(), Accuracy: p.Curve.At(r)}
		if err := rec.Record(RoundObservation{Result: result, Acc: point, Wall: roundWall}); err != nil {
			return nil, err
		}
		if rep.Reached {
			break
		}
	}
	p.Sys.Finalize()
	rep.FinalGlobal = p.Sys.Global()
	if !cfg.StreamOnly {
		rep.ArrivalsPerMinute = p.arrivals.series()
	}
	rep.Elapsed = p.Eng.Now()
	rep.CPUTotal = p.Sys.CPUTime()
	rep.FailuresDetected = p.FailuresDetected
	return rep, nil
}

// StepRound runs one synchronous round end to end — client selection, the
// system's round, and the event stepping until the result fires — and
// returns the result plus the real wall clock the simulation took. It is
// the per-round primitive Platform.Run loops over and the cross-cell
// fabric (internal/cell) drives directly, interleaving its cross-cell
// aggregation tier between rounds. goal overrides cfg.ActivePerRound when
// > 0 (the fabric's per-cell share, which grows when a dead cell's clients
// re-route); pass 0 for the configured value.
func (p *Platform) StepRound(rng *sim.RNG, round, goal int) (systems.RoundResult, time.Duration, error) {
	roundStart := time.Now()
	simStart := p.Eng.Now()
	jobs := p.roundJobs(rng, round, goal)
	playStart := time.Now()
	var result *systems.RoundResult
	p.Sys.RunRound(round, jobs, func(res systems.RoundResult) { result = &res })
	// Advance only until the round completes: pending keep-alive expiry
	// checks must not stall the next round's start (they fire naturally
	// as later rounds run).
	for result == nil && p.Eng.Step() {
	}
	if result == nil {
		return systems.RoundResult{}, 0, errors.New("core: round did not complete")
	}
	p.stageWall(stagePlayout, playStart, round)
	closeStart := time.Now()
	// Round closed, global installed: retire records that fell out of the
	// retention window. Sitting here (not in Run's loop) covers the cell
	// fabric too, which drives StepRound directly.
	if rr := p.Cfg.RetainRounds; rr > 0 {
		p.Sys.RetireRound(round - rr)
	}
	p.stageWall(stageClose, closeStart, round)
	if reg := p.Cfg.Telemetry; reg != nil {
		reg.Counter("core/rounds", obs.Det).Inc()
		reg.Counter("core/updates", obs.Det).Add(uint64(result.Updates))
		reg.Histogram("core/act_seconds", obs.Det, actBuckets).Observe(result.ACT.Seconds())
		// The round envelope: every system span of round r nests inside it
		// (the Perfetto schema invariant). Appended from this serial loop —
		// the span log is single-writer by contract.
		reg.Spans().Add(obs.Span{Actor: "round", Kind: obs.KindRound, Start: simStart, End: p.Eng.Now(), Round: round})
	}
	return *result, time.Since(roundStart), nil
}

// actBuckets bounds the core/act_seconds histogram (0.25 s .. 512 s).
var actBuckets = obs.ExpBuckets(0.25, 12)

// stage names one round stage twice: Kind of its wall-clock span and its
// Volatile wall counter. Both strings are built once, not per round.
type stage struct{ kind, counter string }

var (
	stageSelect      = stage{"select", "stage/select/wall_ns"}
	stageMaterialize = stage{"materialize", "stage/materialize/wall_ns"}
	stagePlayout     = stage{"playout", "stage/playout/wall_ns"}
	stageClose       = stage{"close", "stage/close/wall_ns"}
)

// stageWall accumulates one stage's wall clock into its Volatile counter
// and, under CaptureWall, appends a wall-clock stage span (offsets are
// nanoseconds since platform construction). No-ops without telemetry.
func (p *Platform) stageWall(s stage, start time.Time, round int) {
	reg := p.Cfg.Telemetry
	if reg == nil {
		return
	}
	d := time.Since(start)
	reg.Counter(s.counter, obs.Volatile).Add(uint64(d))
	if wl := reg.WallSpans(); wl != nil {
		end := time.Since(p.wallBase)
		wl.Add(obs.Span{Actor: "stage", Kind: s.kind, Start: sim.Duration(end - d), End: sim.Duration(end), Round: round})
	}
}

// InstallGlobal replaces the system's global model between rounds — the
// cross-cell fabric's model-install hook: after the per-round cross-cell
// fold, every cell adopts the federated global before its next round.
func (p *Platform) InstallGlobal(t *tensor.Tensor) { p.Sys.SetGlobal(t) }

// ArrivalSeries renders the Fig. 10 arrivals-per-minute series collected so
// far (the fabric merges the per-cell series into its global report).
func (p *Platform) ArrivalSeries() []float64 { return p.arrivals.series() }

// roundJobs runs the first two stages of the staged round loop (see
// stages.go): stage one selects the round's active clients and prices
// their jobs serially (every RNG draw lives here), recording scheduled
// arrival minutes for the Fig. 10 arrival series; stage two materializes
// the update tensors across the worker pool. The selector over-provisions;
// clients that fail (per FailureRate) are caught by the heartbeat monitor
// and replaced by standbys, so the aggregation goal is still met (§3
// resilience).
func (p *Platform) roundJobs(rng *sim.RNG, round, goal int) []systems.ClientJob {
	cfg := p.Cfg
	if cfg.Inject != nil {
		return p.injectedJobs()
	}
	if goal <= 0 {
		goal = cfg.ActivePerRound
	}
	// Stage one (serial): selection, failure detection, delay pricing.
	selStart := time.Now()
	idx := p.sel.selectRound(p, rng, goal)
	jobs := make([]systems.ClientJob, 0, len(idx))
	base := p.Eng.Now()
	for _, i := range idx {
		c := p.Pop.Client(i)
		// Hibernation gates availability *between* rounds (the selector only
		// picks active clients); within a round the delay is training time.
		delay := p.Pop.TrainTime(c)
		if !cfg.StreamOnly {
			p.arrivals.note(int((base + delay) / sim.Minute))
		}
		jobs = append(jobs, systems.ClientJob{
			ID:     p.Pop.ClientID(i),
			Delay:  delay,
			Weight: float64(c.Samples),
		})
	}
	p.stageWall(stageSelect, selStart, round)
	// Stage two (parallel): update materialization.
	matStart := time.Now()
	p.attachUpdates(jobs, idx, round)
	p.stageWall(stageMaterialize, matStart, round)
	return jobs
}

// injectedJobs builds the Fig. 8 batch: updates that land directly in the
// in-place queues (§6.1: "we assume the estimated Q is equal to the actual
// queue length"), with arrivals spread over the window like real trainer
// uploads (§5.4) — the spread is what gives eager aggregation its edge.
func (p *Platform) injectedJobs() []systems.ClientJob {
	spec := *p.Cfg.Inject
	jobs := make([]systems.ClientJob, spec.Updates)
	for k := range jobs {
		var d sim.Duration
		if spec.Updates > 1 {
			d = spec.Window * sim.Duration(k) / sim.Duration(spec.Updates)
		}
		jobs[k] = systems.ClientJob{
			ID:     "inj",
			Delay:  d,
			Weight: spec.Weight,
			MakeUpdate: func(g *tensor.Tensor) *tensor.Tensor {
				u := g.Clone()
				for i := range u.Data {
					u.Data[i] += 0.125
				}
				return u
			},
			SkipBroadcast: true,
			PreQueued:     true,
		}
	}
	return jobs
}

// arrivalMeter counts scheduled upload arrivals per simulated minute as a
// growable slice — the hot round path pays one bounds check and an
// increment, never a map probe.
type arrivalMeter struct {
	counts []int
}

func (m *arrivalMeter) note(minute int) {
	for len(m.counts) <= minute {
		m.counts = append(m.counts, 0)
	}
	m.counts[minute]++
}

// series renders the Fig. 10 arrivals-per-minute vector. An empty meter
// yields a single zero sample, matching the legacy map-based meter.
func (m *arrivalMeter) series() []float64 {
	if len(m.counts) == 0 {
		return []float64{0}
	}
	out := make([]float64, len(m.counts))
	for i, c := range m.counts {
		out[i] = float64(c)
	}
	return out
}

// Run is the one-call entry point: assemble a platform and train.
func Run(cfg RunConfig) (*Report, error) {
	p, err := NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}
