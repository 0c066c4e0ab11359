package systems

import (
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Flags select LIFL's orchestration features for the Fig. 8 ablation:
// ① locality-aware placement, ② hierarchy-aware planning (proactive,
// pre-planned aggregator start-up), ③ opportunistic reuse of warm
// instances across levels, ④ eager aggregation.
type Flags struct {
	LocalityPlacement bool // ① BestFit bin-packing (off = least-connection)
	HierarchyPlan     bool // ② pre-planned warm hierarchy (off = reactive)
	Reuse             bool // ③ role conversion of idle warm instances
	Eager             bool // ④ eager aggregation (off = lazy)
}

// AllFlags enables the full LIFL design.
func AllFlags() Flags {
	return Flags{LocalityPlacement: true, HierarchyPlan: true, Reuse: true, Eager: true}
}

// Config parameterizes a system assembly.
type Config struct {
	// Nodes is the number of worker nodes running the aggregation service
	// (the paper uses 5).
	Nodes int
	// TopNode indexes the node hosting the top aggregator when it is not
	// chosen by reuse (the paper dedicates one node to the top).
	TopNode int
	Model   model.Spec
	Params  costmodel.Params
	Seed    int64
	// MC is the per-node maximum service capacity MC_i (model updates),
	// computed offline per Appendix E; 20 in the Fig. 8 testbed for
	// ResNet-152.
	MC float64
	// Flags are LIFL's ablation switches (ignored by SF and SL).
	Flags Flags
	// SFLeaves sizes the serverful static hierarchy for peak load.
	SFLeaves int
	// SFReservedCoresPerNode is SF's always-on CPU allocation per node.
	SFReservedCoresPerNode int
	// SLTargetConcurrency is the baseline threshold autoscaler's
	// per-replica concurrency target.
	SLTargetConcurrency int
	// SLKeepAlive is the baseline's scale-to-zero idle timeout (Knative's
	// stable window, ~60-90 s). Shorter than a round gap, it makes SL
	// cold-start its fleet nearly every round — the churn of Fig. 10(b).
	SLKeepAlive sim.Duration
	// Async parameterizes the buffered-async system (the fifth assembly;
	// see async.go). The synchronous systems ignore it.
	Async AsyncParams
	// Workers bounds the goroutine pool the aggregation fold may use
	// (fedavg.FedAvg's sharded accumulator; <= 1 = serial). Folds are
	// bit-identical for any value — see tensor/parallel.go.
	Workers int
	// ServerOpt turns each round's aggregate into the next global model
	// (default fedavg.Adopt, i.e. plain FedAvg; fedavg.FedAvgM adds server
	// momentum on the ScaleAdd-fused path). All systems share the same
	// optimizer semantics so cross-system comparisons stay algorithm-equal.
	ServerOpt fedavg.ServerOpt
	// Tracer, when set, records Network/Agg/Eval spans for the timelines.
	Tracer *trace.Recorder
	// Obs, when set, receives control-plane and load telemetry (see
	// internal/obs). A nil registry keeps every instrumented site a no-op;
	// systems never allocate one themselves.
	Obs *obs.Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.Model.Params == 0 {
		c.Model = model.ResNet152
	}
	if c.Params.CoresPerNode == 0 {
		c.Params = costmodel.Default()
	}
	if c.MC == 0 {
		c.MC = 20
	}
	if c.SFLeaves == 0 {
		c.SFLeaves = 8
	}
	// SFReservedCoresPerNode of 0 means "size to the fleet" (see NewSF).
	if c.SLTargetConcurrency == 0 {
		c.SLTargetConcurrency = 2
	}
	if c.SLKeepAlive == 0 {
		c.SLKeepAlive = 45 * sim.Second
	}
	if c.ServerOpt == nil {
		c.ServerOpt = fedavg.Adopt{}
	}
	return c
}

// ClientJob is one selected client's contribution to a round.
type ClientJob struct {
	ID string
	// Delay is hibernation + local training time, counted from the moment
	// the client has the global model.
	Delay sim.Duration
	// Weight is the FedAvg sample count c_k.
	Weight float64
	// MakeUpdate produces the local update from the current global model.
	MakeUpdate func(global *tensor.Tensor) *tensor.Tensor
	// SkipBroadcast injects the update Delay after round start without
	// charging model distribution (used by the Fig. 8 microbenchmark,
	// where a batch of updates "arrives at the aggregation service").
	SkipBroadcast bool
	// PreQueued additionally skips the ingest pipeline: the update starts
	// out already resident in the node's message queue, matching Fig. 8's
	// assumption that the estimated Q equals the actual queue length.
	PreQueued bool
}

// RoundResult reports one completed round.
type RoundResult struct {
	Round int
	// Start is round begin (broadcast start); FirstArrival is when the
	// first update reached the service; End is when the new global model
	// was installed and evaluated.
	Start, FirstArrival, End sim.Duration
	// ACT is the aggregation completion time: End − FirstArrival for
	// workload rounds, End − Start when updates are injected directly.
	ACT sim.Duration
	// Updates actually aggregated into the new global model.
	Updates int
	// AggsCreated is new sandbox creations during the round (Fig. 8(c)).
	AggsCreated int
	// AggsActive is aggregator instances that participated.
	AggsActive int
	// NodesUsed is worker nodes that hosted aggregation work (Fig. 8(d)).
	NodesUsed int
	// CPUTime is the cluster CPU consumed during the round under the
	// system's own accounting (usage for LIFL/SL, reservation for SF).
	CPUTime sim.Duration
}

// Service is the common system-under-test interface.
type Service interface {
	Name() string
	// Global returns the current global model.
	Global() *tensor.Tensor
	// SetGlobal replaces the global model between rounds. The cross-cell
	// fabric (internal/cell) uses it to install the federated global after
	// each cross-cell fold; it must not be called while a round is in
	// flight.
	SetGlobal(*tensor.Tensor)
	// RunRound executes one synchronous round over the given client jobs;
	// done fires with the result after the new global model is evaluated.
	RunRound(round int, jobs []ClientJob, done func(RoundResult))
	// ActiveAggregators returns currently live aggregator instances
	// (Fig. 10(b,e)).
	ActiveAggregators() int
	// CPUTime returns cumulative aggregation-service CPU cost under the
	// system's accounting model.
	CPUTime() sim.Duration
	// RetireRound evicts every control-plane record belonging to rounds
	// <= last: round-named registrations (sockmap entries and gateway
	// routes, or broker topics), retained round state and TAG, and any shm
	// references still parked on retired names. Eviction is bookkeeping, not schedule — it must never
	// terminate sandboxes, charge CPU, or touch the event queue, so
	// fixed-seed Reports are byte-identical whether or not (and how
	// aggressively) the caller retires. core's round loop calls it with
	// round − RunConfig.RetainRounds after each round closes.
	RetireRound(last int)
	// Finalize settles deferred costs (sidecar idle drain, reservations)
	// before reading final counters.
	Finalize()
}

// newGlobal builds the round-0 global model with a deterministic non-zero
// fill so aggregation arithmetic is visible in tests.
func newGlobal(m model.Spec) *tensor.Tensor {
	t := m.NewTensor()
	for i := range t.Data {
		t.Data[i] = float32(i%17) * 0.01
	}
	return t
}
