package costmodel

import (
	"time"

	"repro/internal/sim"
)

// CPUFreqHz converts cycles to time on the paper's testbed CPUs
// (64-core Intel Cascade Lake @ 2.8 GHz).
const CPUFreqHz = 2.8e9

// Cycles converts a cycle count into CPU time.
func Cycles(c float64) sim.Duration {
	return sim.Duration(c / CPUFreqHz * float64(time.Second))
}

// CyclesOf converts CPU time back into cycles (for Fig. 7(b)-style reports).
func CyclesOf(d sim.Duration) float64 {
	return d.Seconds() * CPUFreqHz
}

// Params holds every tunable of the platform model. Zero value is invalid;
// use Default().
type Params struct {
	// ---- Node hardware (testbed: 64-core @2.8 GHz, 192 GB, 10 GbE) ----

	CoresPerNode    int
	MemPerNode      uint64  // bytes
	NICBandwidth    float64 // bytes/sec, full duplex per direction
	NICLatency      sim.Duration
	GatewayCores    int // cores initially assigned to the per-node gateway
	GatewayCoresMax int // vertical-scaling ceiling (§4.2)

	// ---- Intra-node data plane (per payload byte unless noted) ----

	// ShmWriteNsPerByte: gateway's one-time payload processing into shared
	// memory (protocol processing + tensor→array conversion + copy).
	// Calibrated: 232 MB × 3.12 ns/B ≈ 0.76 s (Fig. 7(a), LIFL bar).
	ShmWriteNsPerByte float64
	// ShmCPUCyclesPerByte: CPU charged for the same write.
	// Calibrated: 232 MB × 10.1 c/B ≈ 2.45 G cycles (Fig. 7(b), LIFL bar).
	ShmCPUCyclesPerByte float64
	// ShmKeyPassLatency: SKMSG delivery of a 16-byte object key between
	// co-located aggregators (zero-copy hand-off, Appendix A).
	ShmKeyPassLatency sim.Duration

	// KernelStackParallelism: how many kernel TCP/IP traversals a node can
	// service concurrently (softirq/ksoftirqd effective parallelism). This
	// is the contention behind Fig. 4: co-located aggregators exchanging
	// updates over the kernel throttle each other even on a 64-core node.
	KernelStackParallelism int

	// KernelNsPerByte: one traversal of the kernel TCP/IP path (copy in,
	// protocol processing, copy out) as used by SF's direct gRPC channel.
	// A loopback transfer costs TX + RX = 2 traversals.
	// Calibrated: with (de)serialization, the loopback path totals
	// 9.5 ns/B → ≈2.31 s for ResNet-152 ≈ 3 × LIFL (Fig. 7(a)).
	KernelNsPerByte float64
	// KernelCPUCyclesPerByte: CPU per traversal.
	// Calibrated so SF ≈ 7.4 G cycles for ResNet-152 (Fig. 7(b)).
	KernelCPUCyclesPerByte float64

	// SerializeNsPerByte / DeserializeNsPerByte: tensor (de)serialization at
	// protocol endpoints (gRPC marshalling); charged on inter-node paths and
	// on every broker/sidecar hop.
	SerializeNsPerByte   float64
	DeserializeNsPerByte float64
	// SerializePerTensorNs: fixed cost per layer tensor (header, reflection).
	SerializePerTensorNs float64

	// SidecarNsPerByte: extra latency of a container-based sidecar
	// intercepting and forwarding one payload (+SC share of Fig. 7(a)).
	SidecarNsPerByte float64
	// SidecarCPUCyclesPerByte: CPU of the same interception.
	SidecarCPUCyclesPerByte float64
	// SidecarIdleCPUFrac: fraction of one core a container sidecar burns
	// while idle (polling, health checks) — the "heavyweight sidecar" tax.
	// The eBPF sidecar's idle cost is exactly zero (§4.3).
	SidecarIdleCPUFrac float64
	// SidecarMemBytes: resident memory of a container sidecar.
	SidecarMemBytes uint64

	// BrokerNsPerByte: store-and-forward through the message broker
	// (+MB share of Fig. 7(a)): enqueue copy + dequeue copy + dispatch.
	BrokerNsPerByte float64
	// BrokerCPUCyclesPerByte: CPU of the broker hop.
	BrokerCPUCyclesPerByte float64
	// BrokerBaseLatency: fixed per-message broker overhead.
	BrokerBaseLatency sim.Duration

	// EBPFMetricsCycles: one eBPF sidecar invocation (metrics collection and
	// SKMSG redirect on a send() event, §4.3). Event-driven: charged only
	// per message, by sidecar.KeyPass.
	EBPFMetricsCycles float64

	// ---- Aggregation & evaluation compute ----

	// AggCyclesPerByte: aggregating one model update into the accumulator
	// (read + multiply-add + write per 4 B parameter).
	AggCyclesPerByte float64
	// EvalSecondsPerGB: evaluating the global model after a round, scaled by
	// model size (stands in for a fixed validation set forward pass).
	EvalSecondsPerGB float64

	// ---- Function runtime (Knative-like sandbox lifecycle) ----

	// ColdStartDelay: creating a new aggregator sandbox (pull is warm; this
	// is container + runtime + lib init). Drives the cascading cold starts
	// of reactive chain scaling (§2.3, §5.3).
	ColdStartDelay sim.Duration
	// ColdStartCycles: CPU consumed by a cold start.
	ColdStartCycles float64
	// WarmStartDelay: re-activating an idle-but-warm instance.
	WarmStartDelay sim.Duration
	// RoleConvertDelay: converting a warm leaf into a middle/top aggregator
	// (§5.3) — no state sync needed, effectively an RPC.
	RoleConvertDelay sim.Duration
	// AggregatorMemBytes: resident memory of one aggregator runtime,
	// excluding model buffers.
	AggregatorMemBytes uint64
	// RuntimeUpkeepCPUFrac: fraction of one core a live aggregator sandbox
	// consumes continuously (interpreter, health probes, watchdogs). This
	// is usage-accounted for serverless systems; serverful always-on
	// deployments cover it inside their reservation.
	RuntimeUpkeepCPUFrac float64
	// KeepAliveIdle: how long an idle warm instance is retained before the
	// platform reclaims it.
	KeepAliveIdle sim.Duration

	// ---- Cross-cell fabric (internal/cell) ----

	// InterCellRTT: round-trip time between cells over the WAN backbone
	// (cells are independent clusters in different localities; the
	// cross-cell tier pays one half-RTT per aggregate uplink and one per
	// global broadcast).
	InterCellRTT sim.Duration
	// InterCellBandwidth: provisioned inter-cell link rate, bytes/sec per
	// direction — an order of magnitude below the intra-cluster NIC rate,
	// which is what makes cell-local aggregation worth the second tier.
	InterCellBandwidth float64

	// ---- Control plane ----

	// LeafFanIn: I, model updates of clients per leaf aggregator (§5.2,
	// kept small — 2 — to maximize parallelism).
	LeafFanIn int
	// HeartbeatPeriod / HeartbeatTimeout: client keep-alive failure
	// detection (§3).
	HeartbeatPeriod  sim.Duration
	HeartbeatTimeout sim.Duration
	// CheckpointPeriodRounds: checkpoint the global model every N rounds
	// (Appendix B); 0 disables.
	CheckpointPeriodRounds int

	// ---- Queuing-stage memory multipliers (Fig. 13 / Appendix F) ----
	// Number of full payload buffers held along the client→aggregator
	// pipeline: SF-mono 1 (in-memory queue), LIFL 1 (shm, in-place),
	// SF-micro 2 (broker + aggregator), SL-B 3 (sidecar + broker + agg).
	QueueStagesSFMono  int
	QueueStagesLIFL    int
	QueueStagesSFMicro int
	QueueStagesSLB     int
}

// Default returns the calibrated parameter set. Every experiment starts from
// this and overrides only what its figure requires.
func Default() Params {
	return Params{
		CoresPerNode:    64,
		MemPerNode:      192 << 30,
		NICBandwidth:    10e9 / 8, // 10 Gb/s
		NICLatency:      100 * sim.Microsecond,
		GatewayCores:    1,
		GatewayCoresMax: 8,

		ShmWriteNsPerByte:   3.12,
		ShmCPUCyclesPerByte: 10.1,
		ShmKeyPassLatency:   60 * sim.Microsecond,

		KernelStackParallelism: 8,

		KernelNsPerByte:        3.2,
		KernelCPUCyclesPerByte: 10.4,

		SerializeNsPerByte:   1.6,
		DeserializeNsPerByte: 1.5,
		SerializePerTensorNs: 2_000,

		SidecarNsPerByte:        2.15,
		SidecarCPUCyclesPerByte: 12.3,
		SidecarIdleCPUFrac:      0.05,
		SidecarMemBytes:         150 << 20,

		BrokerNsPerByte:        4.7,
		BrokerCPUCyclesPerByte: 25.0,
		BrokerBaseLatency:      1 * sim.Millisecond,

		EBPFMetricsCycles: 6_000,

		AggCyclesPerByte: 2.8,
		EvalSecondsPerGB: 42.0,

		ColdStartDelay:       1000 * sim.Millisecond,
		ColdStartCycles:      1.4e9,
		WarmStartDelay:       45 * sim.Millisecond,
		RoleConvertDelay:     8 * sim.Millisecond,
		AggregatorMemBytes:   350 << 20,
		RuntimeUpkeepCPUFrac: 0.05,
		KeepAliveIdle:        6 * sim.Minute,

		InterCellRTT:       60 * sim.Millisecond, // cross-region backbone
		InterCellBandwidth: 2.5e8,                // 2 Gb/s dedicated inter-cell link

		LeafFanIn:              2,
		HeartbeatPeriod:        5 * sim.Second,
		HeartbeatTimeout:       15 * sim.Second,
		CheckpointPeriodRounds: 10,

		QueueStagesSFMono:  1,
		QueueStagesLIFL:    1,
		QueueStagesSFMicro: 2,
		QueueStagesSLB:     3,
	}
}

// ---- Derived per-operation costs ----

// ShmWrite returns (latency, cpu) for the gateway writing a payload of size
// bytes into the shared-memory object store.
func (p Params) ShmWrite(size uint64) (sim.Duration, sim.Duration) {
	lat := sim.Duration(float64(size) * p.ShmWriteNsPerByte)
	cpu := Cycles(float64(size) * p.ShmCPUCyclesPerByte)
	return lat, cpu
}

// KernelTraversal returns (latency, cpu) for one pass through the kernel
// TCP/IP stack (one direction).
func (p Params) KernelTraversal(size uint64) (sim.Duration, sim.Duration) {
	lat := sim.Duration(float64(size) * p.KernelNsPerByte)
	cpu := Cycles(float64(size) * p.KernelCPUCyclesPerByte)
	return lat, cpu
}

// Serialize returns (latency, cpu) for marshalling a payload with nTensors
// layer tensors; cpu is charged equal to latency (CPU-bound work).
func (p Params) Serialize(size uint64, nTensors int) (sim.Duration, sim.Duration) {
	lat := sim.Duration(float64(size)*p.SerializeNsPerByte + float64(nTensors)*p.SerializePerTensorNs)
	return lat, lat
}

// Deserialize returns (latency, cpu) for unmarshalling.
func (p Params) Deserialize(size uint64, nTensors int) (sim.Duration, sim.Duration) {
	lat := sim.Duration(float64(size)*p.DeserializeNsPerByte + float64(nTensors)*p.SerializePerTensorNs)
	return lat, lat
}

// SidecarHop returns (latency, cpu) for a container sidecar intercepting and
// forwarding a payload once.
func (p Params) SidecarHop(size uint64) (sim.Duration, sim.Duration) {
	lat := sim.Duration(float64(size) * p.SidecarNsPerByte)
	cpu := Cycles(float64(size) * p.SidecarCPUCyclesPerByte)
	return lat, cpu
}

// BrokerHop returns (latency, cpu) for a store-and-forward pass through the
// message broker.
func (p Params) BrokerHop(size uint64) (sim.Duration, sim.Duration) {
	lat := p.BrokerBaseLatency + sim.Duration(float64(size)*p.BrokerNsPerByte)
	cpu := Cycles(float64(size) * p.BrokerCPUCyclesPerByte)
	return lat, cpu
}

// AggregateOne returns the CPU time to fold one update of size bytes into an
// accumulator.
func (p Params) AggregateOne(size uint64) sim.Duration {
	return Cycles(float64(size) * p.AggCyclesPerByte)
}

// EvalTime returns the post-round evaluation time for a model of size bytes.
func (p Params) EvalTime(size uint64) sim.Duration {
	gb := float64(size) / (1 << 30)
	return sim.Duration(gb * p.EvalSecondsPerGB * float64(sim.Second))
}

// WireTime returns NIC service time for size bytes at line rate.
func (p Params) WireTime(size uint64) sim.Duration {
	return sim.Duration(float64(size) / p.NICBandwidth * float64(sim.Second))
}
