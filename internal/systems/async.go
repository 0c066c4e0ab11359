// The buffered-asynchronous system assembly — the fifth system, beside
// LIFL/SL-H/SF/SL: LIFL's event-driven data plane (per-node gateways,
// shared-memory in-place queuing, SKMSG key passes, sandboxed homogenized
// runtimes) driving FedBuff-style buffered-async aggregation (Fig. 11 /
// Appendix A). There are no rounds and no barriers: the dispatcher keeps a
// fixed concurrency of clients training at all times, every upload is
// ingested by the gateway of its edge node and relayed (cross-node via the
// Appendix A gateway path) to the single buffer aggregator, and whenever K
// updates have been folded the global model advances one version through a
// staleness-weighted fused-ScaleAdd merge (internal/asyncfl policies).
//
// The buffer reuses aggcore's eager pipeline verbatim: Recv enqueues shm
// keys, Agg folds one update at a time on the aggregator's single-threaded
// process, and the goal-met Send is the version bump. Staleness decay hangs
// off aggcore's fold-time Reweigh hook — Update.Round carries the
// producer's base version, so an update queued across a version bump is
// damped against the version current when it is actually folded.

package systems

import (
	"fmt"

	"repro/internal/aggcore"
	"repro/internal/asyncfl"
	"repro/internal/cluster"
	"repro/internal/ebpf"
	"repro/internal/fedavg"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shm"
	"repro/internal/sidecar"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// asyncBufferID is the buffer aggregator's logical name in sockmaps and
// gateway routing tables.
const asyncBufferID = "async-buffer"

// AsyncParams are the buffered-async knobs of the async system.
type AsyncParams struct {
	// BufferK is the FedBuff buffer size K: updates folded per version bump
	// (default 10).
	BufferK int
	// StalenessHalfLife damps an update trained s versions ago by
	// 2^(−s/HalfLife); 0 disables damping.
	StalenessHalfLife float64
	// MaxStaleness, when > 0, discards updates staler than this many
	// versions outright (they release their shm reference and do not
	// advance the buffer).
	MaxStaleness int
	// MixRate is the server mixing rate η of the version-bump merge
	// next = (1−η)·global + η·bufferMean; 0 defaults to 1 (adopt).
	MixRate float64
}

// withDefaults fills unset knobs.
func (p AsyncParams) withDefaults() AsyncParams {
	if p.BufferK == 0 {
		p.BufferK = 10
	}
	if p.MixRate == 0 {
		p.MixRate = 1
	}
	return p
}

// AsyncJob is one dispatched client contribution — the async analogue of
// ClientJob. The dispatcher snapshots the global model at dispatch time;
// the system charges the model download, waits out training, and ingests
// the upload at the job's edge node.
type AsyncJob struct {
	ID string
	// Node indexes the worker node whose gateway ingests the upload (client
	// locality); updates landing away from the buffer node relay through
	// the inter-node gateway path.
	Node int
	// Delay is local training time, counted from the moment the client has
	// the global model.
	Delay sim.Duration
	// Weight is the FedAvg sample count c_k (before staleness decay).
	Weight float64
	// BaseVersion is the global model version the client trained against.
	BaseVersion int
	// MakeUpdate produces the local update from the dispatch-time snapshot
	// the dispatcher captured.
	MakeUpdate func() *tensor.Tensor
	// Done fires when the upload has been committed at its edge node — the
	// training slot is free again (concurrency-limited dispatch).
	Done func()
}

// AsyncVersion reports one version bump — the async analogue of
// RoundResult.
type AsyncVersion struct {
	Version int
	// FirstFold is when this version's first surviving contribution began
	// folding — the async analogue of a round's FirstArrival, so
	// Installed − FirstFold is the ACT-equivalent aggregation span.
	// Installed is when the merged model replaced the global; End is after
	// the evaluation task that follows every bump.
	FirstFold, Installed, End sim.Duration
	// Updates is how many contributions were folded into this version (the
	// buffer size K) and MeanStaleness their mean version lag at fold time.
	Updates       int
	MeanStaleness float64
	// Discarded counts updates dropped by the staleness cutoff since the
	// previous bump.
	Discarded int
	// CPUTime is the service's cumulative CPU cost at End.
	CPUTime sim.Duration
}

// AsyncService is the buffered-async counterpart of Service: no rounds —
// clients are dispatched continuously and the global model advances a
// version whenever the buffer goal is met.
type AsyncService interface {
	Name() string
	// Global returns the current global model (immutable by convention;
	// each version installs a fresh tensor).
	Global() *tensor.Tensor
	// Version returns the current global model version.
	Version() int
	// Dispatch launches one client: model download, training delay, upload.
	Dispatch(job AsyncJob)
	// SetOnVersion installs the version-bump observer.
	SetOnVersion(fn func(AsyncVersion))
	// MeanStaleness reports the mean fold-time version lag across the run.
	MeanStaleness() float64
	// ActiveAggregators returns live aggregator instances.
	ActiveAggregators() int
	// CPUTime returns cumulative usage-based CPU cost.
	CPUTime() sim.Duration
	// RetireRound evicts control-plane records belonging to folded
	// versions <= last — the async counterpart of Service.RetireRound,
	// called by core's version loop with version − RetainRounds after
	// each fold. Same contract: bookkeeping only, never schedule. The
	// buffered-async system keeps no per-version records, so its
	// implementation is a no-op.
	RetireRound(last int)
	// Finalize settles deferred costs before reading final counters.
	Finalize()
}

// Async is the buffered-async system.
type Async struct {
	cfg     Config
	prm     AsyncParams
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	GWs     []*gateway.Gateway
	Mgr     *runtime.Manager

	global *tensor.Tensor
	buffer *aggcore.Aggregator
	sb     *runtime.Sandbox
	decay  asyncfl.Decay
	merger asyncfl.Merger
	// Track is the per-client version-tracking census: each in-flight
	// dispatch registers its base version and retires at upload commit,
	// yielding the *arrival*-staleness diagnostic (Track.MeanStaleness)
	// and the in-flight count. The staleness used for damping — and for
	// MeanStaleness on this type — is the fold-time lag carried by the shm
	// object's Round stamp, which may be larger (versions advance while an
	// update waits in the buffer queue).
	Track *asyncfl.Tracker

	version   int
	onVersion func(AsyncVersion)
	// pending parks shm-resident updates that arrive before the buffer
	// sandbox is ready (in-place queuing across the cold start).
	pending []aggcore.Update

	// Per-version accumulators, reset at each bump.
	lagSum       uint64
	lagN         int
	discarded0   uint64
	firstFold    sim.Duration
	hasFirstFold bool

	// Stats.
	Received     uint64
	Folded       uint64
	StalenessSum uint64
}

// NewAsync assembles the buffered-async system on a fresh cluster. The
// buffer aggregator lives on cfg.TopNode; every node runs a gateway with a
// route to it.
func NewAsync(eng *sim.Engine, cfg Config) *Async {
	cfg = cfg.withDefaults()
	prm := cfg.Async.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng, cfg.Params, cfg.Nodes)
	s := &Async{
		cfg:     cfg,
		prm:     prm,
		Eng:     eng,
		Cluster: cl,
		global:  newGlobal(cfg.Model),
		decay:   asyncfl.Decay{HalfLife: prm.StalenessHalfLife, MaxStaleness: prm.MaxStaleness},
		merger:  asyncfl.Merger{Mix: prm.MixRate},
		Track:   asyncfl.NewTracker(),
	}
	bufNode := cl.Nodes[cfg.TopNode].Name
	for i, n := range cl.Nodes {
		gw := gateway.New(n)
		if i != cfg.TopNode {
			gw.SetRoute(asyncBufferID, bufNode)
		}
		s.GWs = append(s.GWs, gw)
	}
	gateway.Connect(s.GWs...)
	s.Mgr = runtime.NewManager(cl.Nodes[cfg.TopNode])
	s.startBuffer()
	return s
}

// startBuffer provisions the sandboxed buffer aggregator (cold start on the
// critical path of the first K updates, exactly like a reactive leaf).
func (s *Async) startBuffer() {
	n := s.Cluster.Nodes[s.cfg.TopNode]
	agg := aggcore.New(asyncBufferID, aggcore.RoleTop, n, fedavg.FedAvg{Workers: s.cfg.Workers},
		s.cfg.Model.PhysLen(), s.cfg.Model.Params)
	agg.Mode = aggcore.Eager // the eager pipeline is what makes the buffer fold on arrival
	agg.Tracer = s.cfg.Tracer
	agg.TraceName = "Buf"
	agg.OnComplete = s.onBuffer
	agg.Reweigh = s.reweigh
	agg.Assign(aggcore.RoleTop, s.prm.BufferK, "", 0)
	s.buffer = agg
	sb := s.Mgr.Start("async", func(*runtime.Sandbox) { s.bind() })
	agg.Sandbox = sb
	sb.Pinned = true // always owes the next version an output
	s.sb = sb
}

// bind publishes the ready buffer in the node's sockmap and drains updates
// that queued in shared memory during the cold start.
func (s *Async) bind() {
	n := s.Cluster.Nodes[s.cfg.TopNode]
	n.SockMap.Register(asyncBufferID, s.deliver)
	for _, u := range s.pending {
		s.buffer.Receive(u)
	}
	s.pending = nil
	s.buffer.NotifyReady()
}

// Name implements AsyncService.
func (s *Async) Name() string { return "Async" }

// Global implements AsyncService.
func (s *Async) Global() *tensor.Tensor { return s.global }

// Version implements AsyncService.
func (s *Async) Version() int { return s.version }

// SetOnVersion implements AsyncService.
func (s *Async) SetOnVersion(fn func(AsyncVersion)) { s.onVersion = fn }

// ActiveAggregators implements AsyncService.
func (s *Async) ActiveAggregators() int { return s.Mgr.LiveCount() }

// CPUTime implements AsyncService (usage-based accounting, like LIFL).
func (s *Async) CPUTime() sim.Duration {
	s.Finalize()
	return s.Cluster.TotalCPUTime()
}

// RetireRound implements AsyncService as a no-op, like SF's: the async
// plane keeps no per-version records. The buffer's single sockmap entry
// and its gateway routes are installed once at startup, and every folded
// update has already released its shm reference.
func (s *Async) RetireRound(int) {}

// Finalize implements AsyncService: settles upkeep and, like LIFL,
// publishes the eBPF sidecar load signals.
func (s *Async) Finalize() {
	s.Mgr.SettleUpkeep()
	publishEBPF(s.cfg.Obs, s.Cluster.Nodes)
}

// Pending returns updates parked or queued but not yet folded.
func (s *Async) Pending() int { return len(s.pending) + s.buffer.Pending() }

// Discarded returns updates dropped by the staleness cutoff.
func (s *Async) Discarded() uint64 { return s.buffer.Discarded }

// MeanStaleness implements AsyncService: mean fold-time version lag.
func (s *Async) MeanStaleness() float64 {
	if s.Folded == 0 {
		return 0
	}
	return float64(s.StalenessSum) / float64(s.Folded)
}

// reweigh is the fold-time staleness policy (aggcore.Reweigh): damp the
// contribution by how many versions behind the current model it trained.
func (s *Async) reweigh(u aggcore.Update) float64 {
	lag := s.version - u.Round
	if lag < 0 {
		lag = 0
	}
	w := u.Weight * s.decay.Weight(lag)
	if w <= 0 {
		return 0
	}
	if !s.hasFirstFold {
		s.hasFirstFold = true
		s.firstFold = s.Eng.Now()
	}
	s.lagSum += uint64(lag)
	s.lagN++
	s.StalenessSum += uint64(lag)
	s.Folded++
	return w
}

// Dispatch implements AsyncService: broadcast the current model to the
// client (buffer-node egress NIC, staggered naturally by sharing), wait out
// training, then ingest the upload at the job's edge node.
func (s *Async) Dispatch(job AsyncJob) {
	if job.Node < 0 || job.Node >= len(s.GWs) {
		panic(fmt.Sprintf("async: dispatch to node %d of %d", job.Node, len(s.GWs)))
	}
	ticket := s.Track.Dispatch(job.BaseVersion)
	size := s.cfg.Model.Bytes()
	s.Cluster.Nodes[s.cfg.TopNode].Egress.Transfer(size, func(_, _ sim.Duration) {
		s.Eng.After(job.Delay, func() { s.upload(job, ticket) })
	})
}

// upload ingests one finished client's update: gateway RX pipeline at the
// edge node (kernel RX, deserialize, shm commit), then the key pass —
// direct when the update landed on the buffer node, via the Appendix A
// inter-node relay otherwise. The training slot frees at the edge commit.
func (s *Async) upload(job AsyncJob, ticket int) {
	upd := job.MakeUpdate()
	gw := s.GWs[job.Node]
	gu := gateway.Update{
		Tensor:   upd,
		Weight:   job.Weight,
		Size:     upd.VirtualBytes(),
		NTensors: len(s.cfg.Model.Layers),
		Round:    job.BaseVersion, // stamped into the shm object; read back by the fold-time reweigh
		Producer: job.ID,
	}
	gw.ReceiveExternal(gu, func(key shm.Key) {
		s.Received++
		if _, err := s.Track.Complete(ticket, s.version); err != nil {
			panic(fmt.Sprintf("async: %v", err))
		}
		if job.Done != nil {
			job.Done() // slot free: the upload is committed at the edge
		}
		if job.Node == s.cfg.TopNode {
			s.keyPass(job.ID, key)
			return
		}
		if err := gw.SendRemote(job.ID, key, asyncBufferID, func(remote shm.Key) {
			s.keyPass(job.ID, remote)
		}); err != nil {
			panic(fmt.Sprintf("async: relay: %v", err))
		}
	})
}

// keyPass hands a buffer-node shm key to the buffer aggregator through the
// node's eBPF sidecar; before the sandbox is ready the update parks in
// shm-backed pending.
func (s *Async) keyPass(src string, key shm.Key) {
	n := s.Cluster.Nodes[s.cfg.TopNode]
	if sidecar.KeyPass(n, ebpf.Message{SrcID: src, DstID: asyncBufferID, ShmKey: key}) {
		return
	}
	obj, err := n.Shm.Get(key)
	if err != nil {
		panic(fmt.Sprintf("async: keyPass pending %s: %v", key, err))
	}
	s.pending = append(s.pending, aggcore.Update{
		Tensor: obj.Tensor, Weight: obj.Weight, Size: obj.Size,
		Round: obj.Round, Producer: src, Key: key, Store: n.Shm,
	})
}

// deliver materializes a delivered shm key into a buffer Receive.
func (s *Async) deliver(msg ebpf.Message) {
	store := s.Cluster.Nodes[s.cfg.TopNode].Shm
	obj, err := store.Get(msg.ShmKey)
	if err != nil {
		panic(fmt.Sprintf("async: deliver %s: %v", msg.ShmKey, err))
	}
	s.buffer.Receive(aggcore.Update{
		Tensor:   obj.Tensor,
		Weight:   obj.Weight,
		Size:     obj.Size,
		Round:    obj.Round, // base version, consumed by reweigh at fold time
		Producer: msg.SrcID,
		Key:      msg.ShmKey,
		Store:    store,
	})
}

// onBuffer fires when the buffer's goal is met (aggcore Send): merge the
// staleness-weighted buffer mean into the global model with the fused
// ScaleAdd, bump the version, run the evaluation task, then re-arm the
// buffer for the next version and drain anything queued meanwhile.
func (s *Async) onBuffer(top *aggcore.Aggregator, out aggcore.Update) {
	next, err := s.merger.Merge(s.global, out.Tensor)
	if err != nil {
		panic(fmt.Sprintf("async: merge: %v", err))
	}
	s.global = next
	s.version++
	s.cfg.Obs.Counter("ctrl/versions_installed", obs.Det).Inc()
	v := AsyncVersion{
		Version:   s.version,
		FirstFold: s.firstFold,
		Installed: s.Eng.Now(),
		Updates:   top.Done(),
		Discarded: int(s.buffer.Discarded - s.discarded0),
	}
	if s.lagN > 0 {
		v.MeanStaleness = float64(s.lagSum) / float64(s.lagN)
	}
	s.lagSum, s.lagN = 0, 0
	s.hasFirstFold = false
	s.discarded0 = s.buffer.Discarded
	eval := top.Node.P.EvalTime(s.cfg.Model.Bytes())
	top.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
		s.cfg.Tracer.Add(top.TraceName, trace.KindEval, start, end, v.Version)
		v.End = s.Eng.Now()
		v.CPUTime = s.CPUTime()
		// Re-arm for the next version; updates that queued during the
		// merge/eval window drain now, damped against the new version.
		top.Assign(aggcore.RoleTop, s.prm.BufferK, "", s.version)
		top.NotifyReady()
		if s.onVersion != nil {
			s.onVersion(v)
		}
	})
}
