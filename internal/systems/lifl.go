// The LIFL system assembly: shared-memory data plane + eBPF sidecars +
// per-node gateways + the orchestration heuristics of §5, with each feature
// individually switchable (Flags) for the Fig. 8 ablation. With all flags
// off this assembly is exactly the paper's SL-H baseline: LIFL's data plane
// under a conventional serverless control plane (least-connection load
// balancing, reactive scaling, lazy aggregation, no reuse).

package systems

import (
	"fmt"
	"sort"

	"repro/internal/aggcore"
	"repro/internal/autoscaler"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/ebpf"
	"repro/internal/fedavg"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/runtime"
	"repro/internal/shm"
	"repro/internal/sidecar"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topology"
	"repro/internal/trace"
)

// LIFL is the full system of Fig. 3.
type LIFL struct {
	cfg     Config
	Eng     *sim.Engine
	RNG     *sim.RNG
	Cluster *cluster.Cluster
	GWs     []*gateway.Gateway
	Mgrs    []*runtime.Manager

	// ForcePlan, when set, overrides the hierarchy planner per node —
	// used by microbenchmarks that pin the paper's exact topology (e.g.
	// Fig. 7(c): four leaves feeding the top directly).
	ForcePlan func(node string, updates int) autoscaler.Plan

	global *tensor.Tensor
	algo   fedavg.Algorithm

	// Ckpt is the external persistent store for Appendix-B model
	// checkpoints, written asynchronously every CheckpointPeriodRounds.
	Ckpt *checkpoint.Store

	// arrivals counts committed client updates cluster-wide (the
	// load/arrival_rate_per_min gauge).
	arrivals *metrics.Meter

	rs *liflRound
	// hist retains rounds in round order until RetireRound pops them off
	// its front — the control-plane record window that keeps mid-round
	// failover replay and checkpoint-restore working while bounding live
	// heap.
	hist []*liflRound
	// spare holds, per node, the instances of closed rounds that a later
	// round's provisioning recycles instead of building new ones.
	spare [][]*aggInst
}

// liflRound is the in-flight round state.
type liflRound struct {
	slotTable // the round's aggregators, laid out by plan

	round    int
	jobs     []ClientJob
	done     func(RoundResult)
	start    sim.Duration
	first    sim.Duration
	hasFirst bool
	injected bool // all jobs skip broadcast (ACT measured from round start)

	assignNode []int // job index → node index
	topNode    int   // resolved top host (may change via reuse binding)
	topBound   bool
	aggDone    sim.Duration // global model installed (ACT endpoint, pre-eval)

	cpu0     sim.Duration
	created0 uint64
	updates  int
	finished bool
}

func (rs *liflRound) closedBy(last int) bool { return rs.finished && rs.round <= last }

// NewLIFL assembles the system on a fresh cluster.
func NewLIFL(eng *sim.Engine, cfg Config) *LIFL {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng, cfg.Params, cfg.Nodes)
	s := &LIFL{
		cfg:      cfg,
		Eng:      eng,
		RNG:      rng,
		Cluster:  cl,
		global:   newGlobal(cfg.Model),
		algo:     fedavg.FedAvg{Workers: cfg.Workers},
		Ckpt:     checkpoint.NewStore(eng, 1e9), // 1 GB/s uplink to storage
		arrivals: metrics.NewMeter(eng, sim.Minute),
		spare:    make([][]*aggInst, len(cl.Nodes)),
	}
	for _, n := range cl.Nodes {
		s.GWs = append(s.GWs, gateway.New(n))
		s.Mgrs = append(s.Mgrs, runtime.NewManager(n))
	}
	gateway.Connect(s.GWs...)
	return s
}

// Name implements Service.
func (s *LIFL) Name() string {
	if s.cfg.Flags == (Flags{}) {
		return "SL-H"
	}
	return "LIFL"
}

// Global implements Service.
func (s *LIFL) Global() *tensor.Tensor { return s.global }

// SetGlobal implements Service (the cross-cell fabric's between-round
// model install).
func (s *LIFL) SetGlobal(t *tensor.Tensor) { s.global = t }

// CPUTime implements Service (usage-based accounting, including the
// continuous runtime upkeep of live sandboxes).
func (s *LIFL) CPUTime() sim.Duration {
	s.Finalize()
	return s.Cluster.TotalCPUTime()
}

// ActiveAggregators implements Service.
func (s *LIFL) ActiveAggregators() int {
	n := 0
	for _, m := range s.Mgrs {
		n += m.LiveCount()
	}
	return n
}

// Finalize implements Service: settles deferred upkeep and publishes the
// eBPF sidecar load signals.
func (s *LIFL) Finalize() {
	for _, m := range s.Mgrs {
		m.SettleUpkeep()
	}
	publishEBPF(s.cfg.Obs, s.Cluster.Nodes)
}

// publishEBPF sets the eBPF sidecar gauges from the nodes' SKMSG counters:
// run/redirect/drop totals are virtual-time deterministic, while live
// sockmap occupancy depends on how aggressively the caller retired rounds
// (Volatile).
func publishEBPF(reg *obs.Registry, nodes []*cluster.Node) {
	if reg == nil {
		return
	}
	var runs, redirects, drops, entries uint64
	for _, n := range nodes {
		runs += n.SKMSG.Runs
		redirects += n.SKMSG.Redirects
		drops += n.SKMSG.Drops
		entries += uint64(n.SockMap.Len())
	}
	reg.Gauge("ebpf/skmsg_runs", obs.Det).Set(float64(runs))
	reg.Gauge("ebpf/redirects", obs.Det).Set(float64(redirects))
	reg.Gauge("ebpf/drops", obs.Det).Set(float64(drops))
	reg.Gauge("ebpf/sockmap_entries", obs.Volatile).Set(float64(entries))
}

// createdTotal sums cold creations across nodes.
func (s *LIFL) createdTotal() uint64 {
	var n uint64
	for _, m := range s.Mgrs {
		n += m.Created
	}
	return n
}

// mode returns the aggregation timing selected by flag ④.
func (s *LIFL) mode() aggcore.Mode {
	if s.cfg.Flags.Eager {
		return aggcore.Eager
	}
	return aggcore.Lazy
}

// RunRound implements Service.
func (s *LIFL) RunRound(round int, jobs []ClientJob, done func(RoundResult)) {
	if s.rs != nil && !s.rs.finished {
		panic("lifl: overlapping rounds (synchronous FL)")
	}
	rs := &liflRound{
		round:    round,
		jobs:     jobs,
		done:     done,
		start:    s.Eng.Now(),
		topNode:  s.cfg.TopNode,
		cpu0:     s.CPUTime(),
		created0: s.createdTotal(),
		injected: true,
	}
	for _, j := range jobs {
		if !j.SkipBroadcast {
			rs.injected = false
			break
		}
	}
	s.rs = rs
	s.hist = append(s.hist, rs)

	// Reap expired warm instances at round boundaries (the agent's cycle).
	for _, m := range s.Mgrs {
		m.ReapIdle()
	}

	s.place(rs)
	s.plan(rs)
	if s.cfg.Flags.HierarchyPlan {
		s.prestart(rs)
	}
	s.launchClients(rs)
}

// place runs the round's load balancing (§5.1): BestFit under flag ①,
// otherwise the least-connection-equivalent WorstFit of SL-H. Placement is
// load-blind (DESIGN.md): every node's arrival rate k_{i,t} is 0 and its
// per-update time E_{i,t} is the modelled AggregateOne.
func (s *LIFL) place(rs *liflRound) {
	states := make([]*placement.NodeState, 0, len(s.Cluster.Nodes))
	for _, n := range s.Cluster.Nodes {
		states = append(states, &placement.NodeState{
			Name:     n.Name,
			MC:       s.cfg.MC,
			ExecTime: s.cfg.Params.AggregateOne(s.cfg.Model.Bytes()),
		})
	}
	var policy placement.Policy = placement.WorstFit{}
	if s.cfg.Flags.LocalityPlacement {
		policy = placement.BestFit{}
	}
	assign, err := policy.PlaceIndexed(len(rs.jobs), states)
	if err != nil {
		panic(fmt.Sprintf("lifl: placement: %v", err))
	}
	// Expand counts into per-job node assignment, clustering consecutive
	// jobs on the same node (the mapping is what in-place queuing acts on).
	rs.assignNode = expandAssignment(assign, len(rs.jobs))
}

// expandAssignment flattens a node-indexed placement into per-job node
// indices, clustering consecutive jobs on the same node in node order (the
// same order the name-keyed map produced when walked by sorted node index).
func expandAssignment(a placement.Assignment, jobs int) []int {
	out := make([]int, jobs)
	j := 0
	for idx, c := range a {
		for k := 0; k < c && j < jobs; k++ {
			out[j] = idx
			j++
		}
	}
	return out
}

// plan sizes the per-node hierarchy (§5.2) and lays the round's
// aggregators out in its slot table.
func (s *LIFL) plan(rs *liflRound) {
	counts := make([]int, len(s.Cluster.Nodes))
	for _, n := range rs.assignNode {
		counts[n]++
	}
	plans := make([]autoscaler.Plan, len(counts))
	for node, c := range counts {
		if c == 0 {
			continue
		}
		name := s.Cluster.Nodes[node].Name
		if s.ForcePlan != nil {
			plans[node] = s.ForcePlan(name, c)
		} else {
			plans[node] = autoscaler.PlanNode(name, c, s.cfg.Params.LeafFanIn)
		}
	}
	rs.slotTable = newSlotTable("r", rs.round, plans, rs.topNode)
}

// RoundTAG builds the current round's Topology Abstraction Graph
// (Appendix D) from its slot table (nil outside a round). Nothing on the
// round's path reads it, so it is built only when asked; that every plan
// yields a valid TAG is a property test over generated plans.
func (s *LIFL) RoundTAG() *topology.TAG {
	if s.rs == nil {
		return nil
	}
	g, err := s.rs.buildTAG(func(node int) string { return s.Cluster.Nodes[node].Name })
	if err != nil {
		panic(fmt.Sprintf("lifl: TAG: %v", err))
	}
	return g
}

// FailAggregator kills the instance behind the logical name mid-round and
// recovers per §3: aggregators are stateless and the updates are immutable
// in shared memory, so a fresh instance starts without state synchronization
// and the agent replays the failed instance's updates into it. Returns the
// number of updates replayed.
func (s *LIFL) FailAggregator(name string) (int, error) {
	rs := s.rs
	if rs == nil || rs.finished {
		return 0, fmt.Errorf("lifl: no round in flight")
	}
	i := rs.lookup(name)
	if i < 0 || rs.slots[i].inst == nil {
		return 0, fmt.Errorf("lifl: %q not bound", name)
	}
	sl := &rs.slots[i]
	// Crash the instance: drop its routes and sandbox.
	la := sl.inst
	replay := la.agg.FailoverUpdates()
	s.unregister(name, la.node)
	s.Mgrs[la.node].Terminate(la.sb)
	sl.inst, sl.started = nil, false

	// Stateless restart: re-provision under the same logical name and
	// requeue the in-place updates (they become pending and drain when the
	// replacement binds).
	sl.pending = append(sl.pending, replay...)
	s.provision(rs, i, la.node)
	return len(replay), nil
}

// unregister drops a bound name's sockmap entry on its node and its routes
// on every other gateway.
func (s *LIFL) unregister(name string, node int) {
	s.Cluster.Nodes[node].SockMap.Remove(name)
	for i, gw := range s.GWs {
		if i != node {
			gw.DropRoute(name)
		}
	}
}

// RetireRound implements Service: evict every control-plane record for
// rounds <= last. Finished rounds leave the front of the history in round
// order; each one's slot table is walked once — every bound name loses its
// sockmap entry and gateway routes, leftover pending shm references are
// released — and the round state (slots, TAG, aggregator closures) is
// unreferenced. The checkpoint store retires superseded snapshots. Pure
// bookkeeping: no sandbox terminations, no CPU charges, no events.
func (s *LIFL) RetireRound(last int) {
	var rounds int
	s.hist, rounds = retireFront(s.hist, last, s.evictRound)
	if rounds == 0 {
		return
	}
	s.Ckpt.Retire(last)
	// Eviction telemetry is Volatile by construction: how much is retired
	// (and when) is a function of the caller's retention window, which the
	// deterministic snapshot must not depend on.
	s.cfg.Obs.Counter("ctrl/rounds_evicted", obs.Volatile).Add(uint64(rounds))
}

// evictRound retires one closed round's registrations and references.
func (s *LIFL) evictRound(rs *liflRound) {
	refs := 0
	for i := range rs.slots {
		sl := &rs.slots[i]
		if sl.inst != nil {
			s.unregister(sl.name, sl.inst.node)
		}
		for _, u := range sl.pending {
			u.Release()
		}
		refs += len(sl.pending)
		sl.pending = nil
	}
	s.cfg.Obs.Counter("ctrl/registrations_retired", obs.Volatile).Add(uint64(len(rs.slots)))
	s.cfg.Obs.Counter("ctrl/shm_refs_released", obs.Volatile).Add(uint64(refs))
}

// prestart provisions the planned hierarchy at round start (flag ②), so
// start-up overlaps with client training and uploads. Middles and the top
// are only pre-started when reuse (③) is off; with reuse they are bound by
// role conversion of completed instances.
func (s *LIFL) prestart(rs *liflRound) {
	top := rs.top()
	for i := range rs.slots[:top] {
		if rs.slots[i].role == aggcore.RoleLeaf || !s.cfg.Flags.Reuse {
			s.provision(rs, i, rs.slots[i].node)
		}
	}
	if !s.cfg.Flags.Reuse {
		s.provision(rs, top, rs.topNode)
		rs.topBound = true
	}
}

// provision starts (cold or warm) a sandbox on node for slot i and binds an
// aggregator to it when ready. Idempotent per slot.
func (s *LIFL) provision(rs *liflRound, i, node int) {
	sl := &rs.slots[i]
	if sl.started {
		return
	}
	sl.started = true
	mgr := s.Mgrs[node]
	la := s.instance(sl.name, sl.role, node)
	agg := la.agg
	agg.Mode = s.mode()
	agg.Tracer = s.cfg.Tracer
	agg.TraceName = traceNameFor(sl.name, sl.role)
	agg.Assign(sl.role, sl.goal, rs.dstName(i), rs.round)
	agg.Transport = (*liflTransport)(s)
	if sl.role == aggcore.RoleTop {
		agg.OnComplete = s.onGlobal
		rs.topNode = node
	}
	// Deployment kind: with reuse, all LIFL aggregators share one
	// homogenized runtime kind; without it, each level is its own
	// deployment (warm pods cannot cross levels).
	kind := "agg"
	if !s.cfg.Flags.Reuse {
		kind = sl.role.String()
	}
	sb := mgr.Start(kind, func(sb *runtime.Sandbox) {
		// Sandbox ready: bind, register routes, drain anything queued.
		s.bindAgg(rs, i, la)
		agg.NotifyReady()
	})
	la.sb = sb
	agg.Sandbox = sb
	sb.Pinned = true // owes this round an output (cleared on Send)
}

// instance returns an aggregator instance on node for slot name: a parked
// one recycled, or else a new one.
func (s *LIFL) instance(name string, role aggcore.Role, node int) *aggInst {
	if k := len(s.spare[node]) - 1; k >= 0 {
		la := s.spare[node][k]
		s.spare[node][k] = nil
		s.spare[node] = s.spare[node][:k]
		la.parked = false
		la.agg.Recycle(name, role)
		return la
	}
	la := &aggInst{node: node}
	la.agg = aggcore.New(name, role, s.Cluster.Nodes[node], s.algo, s.cfg.Model.PhysLen(), s.cfg.Model.Params)
	la.deliver = func(msg ebpf.Message) { s.deliverFromShm(la, msg) }
	return la
}

// park returns a closed round's live instances to their nodes' spare
// pools. Once the round has closed every bound instance has sent, has no
// step left on its process, and has had every output it sent folded — what
// aggcore's Recycle requires. An instance bound to two slots (a role
// conversion) is parked once; a failed one, whose sandbox was terminated,
// is dropped.
func (s *LIFL) park(rs *liflRound) {
	for i := range rs.slots {
		la := rs.slots[i].inst
		if la == nil || la.parked || la.sb.State() == runtime.StateTerminated {
			continue
		}
		la.parked = true
		s.spare[la.node] = append(s.spare[la.node], la)
	}
}

// traceNameFor compresses logical names for timeline rows.
func traceNameFor(name string, role aggcore.Role) string {
	switch role {
	case aggcore.RoleTop:
		return "Top"
	default:
		return name
	}
}

// bindAgg publishes the instance under slot i's logical name: sockmap entry
// on its node, inter-node routes on every gateway, pending queue drain.
func (s *LIFL) bindAgg(rs *liflRound, i int, la *aggInst) {
	sl := &rs.slots[i]
	sl.inst = la
	// Registration creation tracks the planned topology, not the retention
	// window — deterministic for a fixed seed.
	s.cfg.Obs.Counter("ctrl/registrations_created", obs.Det).Inc()
	n := s.Cluster.Nodes[la.node]
	n.SockMap.Register(sl.name, la.deliver)
	for g, gw := range s.GWs {
		if g != la.node {
			gw.SetRoute(sl.name, n.Name)
		}
	}
	if la.agg.Role == aggcore.RoleTop {
		rs.topBound = true
		rs.topNode = la.node
	}
	for _, u := range sl.pending {
		la.agg.Receive(u)
	}
	sl.pending = nil
}

// deliverFromShm materializes an shm key into an aggregator Update.
func (s *LIFL) deliverFromShm(la *aggInst, msg ebpf.Message) {
	store := s.Cluster.Nodes[la.node].Shm
	obj, err := store.Get(msg.ShmKey)
	if err != nil {
		panic(fmt.Sprintf("lifl: deliver %s: %v", msg.ShmKey, err))
	}
	la.agg.Receive(aggcore.Update{
		Tensor:   obj.Tensor,
		Weight:   obj.Weight,
		Size:     obj.Size,
		Round:    obj.Round,
		Producer: msg.SrcID,
		Key:      msg.ShmKey,
		Store:    store,
	})
}

// launchClients schedules the round's model distribution and uploads.
func (s *LIFL) launchClients(rs *liflRound) {
	topEgress := s.Cluster.Nodes[rs.topNode].Egress
	size := s.cfg.Model.Bytes()
	for i, j := range rs.jobs {
		i, j := i, j
		node := rs.assignNode[i]
		arrive := func() {
			upd := j.MakeUpdate(s.global)
			s.ingest(rs, node, j, upd)
		}
		if j.SkipBroadcast {
			s.Eng.After(j.Delay, arrive)
			continue
		}
		// Broadcast: the global model leaves the top node once per client;
		// the shared egress NIC staggers the downloads naturally.
		topEgress.Transfer(size, func(_, _ sim.Duration) {
			s.Eng.After(j.Delay, arrive)
		})
	}
}

// ingest pushes one client update into the assigned node's gateway; the
// committed key is dispatched to a leaf (in-place message queuing, §4.2).
func (s *LIFL) ingest(rs *liflRound, node int, j ClientJob, upd *tensor.Tensor) {
	if j.PreQueued {
		// The update is already resident in the node's in-place queue.
		key, err := s.Cluster.Nodes[node].Shm.Put(upd, j.Weight, j.ID, rs.round)
		if err != nil {
			panic(fmt.Sprintf("lifl: prequeued: %v", err))
		}
		if !rs.hasFirst {
			rs.hasFirst = true
			rs.first = s.Eng.Now()
		}
		rs.updates++
		s.dispatch(rs, node, key)
		return
	}
	gw := s.GWs[node]
	gu := gateway.Update{
		Tensor:   upd,
		Weight:   j.Weight,
		Size:     upd.VirtualBytes(),
		NTensors: len(s.cfg.Model.Layers),
		Round:    rs.round,
		Producer: j.ID,
	}
	gw.ReceiveExternal(gu, func(key shm.Key) {
		if !rs.hasFirst {
			rs.hasFirst = true
			rs.first = s.Eng.Now()
		}
		rs.updates++
		s.arrivals.Mark()
		s.dispatch(rs, node, key)
	})
}

// dispatch assigns a committed update to a leaf (round-robin over the
// node's planned leaves so eager leaves start as early as possible) and
// performs the SKMSG key pass. Under reactive scaling (② off) the leaf's
// sandbox is provisioned on first demand — the cold start lands on the
// critical path, which is exactly the penalty Fig. 8 charges SL-H and +①.
func (s *LIFL) dispatch(rs *liflRound, node int, key shm.Key) {
	i := rs.nextLeaf(node)
	if i < 0 {
		panic(fmt.Sprintf("lifl: no leaves planned on node %d", node))
	}
	s.provision(rs, i, node)
	s.keyPass(rs, node, "gw", i, key)
}

// keyPass sends a 16-byte shm key through the node's eBPF sidecar to slot
// dst's logical name. Unbound destinations queue in pending (the update
// already sits in shm — this is in-place queuing).
func (s *LIFL) keyPass(rs *liflRound, node int, src string, dst int, key shm.Key) {
	n := s.Cluster.Nodes[node]
	if sidecar.KeyPass(n, ebpf.Message{SrcID: src, DstID: rs.slots[dst].name, ShmKey: key}) {
		return
	}
	// No socket yet (reactive/reuse not bound): park in shm-backed pending.
	obj, err := n.Shm.Get(key)
	if err != nil {
		panic(fmt.Sprintf("lifl: keyPass pending %s: %v", key, err))
	}
	sl := &rs.slots[dst]
	sl.pending = append(sl.pending, aggcore.Update{
		Tensor: obj.Tensor, Weight: obj.Weight, Size: obj.Size,
		Round: obj.Round, Producer: src, Key: key, Store: n.Shm,
	})
	s.demand(rs, node, dst)
}

// demand reacts to traffic for an unbound slot: under reactive scaling it
// provisions the instance now; under reuse it converts a warm idle instance
// when one exists (§5.3).
func (s *LIFL) demand(rs *liflRound, node, i int) {
	if rs.slots[i].started {
		return
	}
	if s.cfg.Flags.Reuse && s.convert(rs, node, i) {
		return
	}
	s.provision(rs, i, node)
}

// convert binds slot i to a warm idle instance on the same node via role
// conversion (§5.3). Returns false when no candidate is idle.
func (s *LIFL) convert(rs *liflRound, node, i int) bool {
	var cands []*aggcore.Aggregator
	for j := range rs.slots {
		if la := rs.slots[j].inst; la != nil && la.node == node && j != i {
			cands = append(cands, la.agg)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	pick := coordinator.PickIdle(cands)
	if pick == nil {
		return false
	}
	sl := &rs.slots[i]
	sl.started = true
	s.cfg.Obs.Counter("ctrl/conversions", obs.Det).Inc()
	// Locate the instance wrapper.
	var la *aggInst
	for j := range rs.slots {
		if inst := rs.slots[j].inst; inst != nil && inst.agg == pick {
			la = inst
			break
		}
	}
	pick.ConvertRole(sl.role, sl.goal, rs.dstName(i), rs.round, func() {
		if sl.role == aggcore.RoleTop {
			pick.OnComplete = s.onGlobal
			pick.TraceName = "Top"
		}
		s.bindAgg(rs, i, la)
		pick.NotifyReady()
	})
	return true
}

// liflTransport implements aggcore.Transport over shm + SKMSG + gateways.
type liflTransport LIFL

// SendResult writes the aggregate into shared memory (the one real copy of
// the LIFL intra-node path, Fig. 7(a)) and hands the key to the consumer —
// via SKMSG when co-located, via the gateways otherwise.
func (t *liflTransport) SendResult(src *aggcore.Aggregator, out aggcore.Update, dstID string) {
	s := (*LIFL)(t)
	rs := s.rs
	srcNode := s.nodeIndexOf(src.Node)
	n := src.Node
	shmLat, shmCPU := n.P.ShmWrite(out.Size)
	src.ExecAs("aggregator", shmLat, shmCPU, func(start, end sim.Duration) {
		s.cfg.Tracer.Add(src.TraceName, trace.KindNetwork, start, end, rs.round)
		key, err := n.Shm.Put(out.Tensor, out.Weight, src.ID, out.Round)
		if err != nil {
			panic(fmt.Sprintf("lifl transport: %v", err))
		}
		// Resolve destination placement.
		dst := rs.lookup(dstID)
		if dst < 0 {
			panic("lifl transport: unknown destination " + dstID)
		}
		la := rs.slots[dst].inst
		if la != nil && la.node != srcNode {
			// Cross-node: relay through the gateways (Appendix A).
			dstNodeIdx := la.node
			gw := s.GWs[srcNode]
			if err := gw.SendRemote(src.ID, key, dstID, func(remoteKey shm.Key) {
				s.keyPass(rs, dstNodeIdx, src.ID, dst, remoteKey)
			}); err != nil {
				panic(fmt.Sprintf("lifl transport: %v", err))
			}
			return
		}
		if la == nil && dst == rs.top() && rs.topBound && rs.topNode != srcNode {
			// Destination is the (unbound) top on another node without
			// reuse; should not happen since non-reuse tops pre-bind.
			panic("lifl transport: unbound remote destination " + dstID)
		}
		// Same node (or unbound-yet local name): SKMSG key pass; demand
		// resolution provisions or converts as needed.
		s.keyPass(rs, srcNode, src.ID, dst, key)
	})
}

func (s *LIFL) nodeIndexOf(n *cluster.Node) int {
	for i, c := range s.Cluster.Nodes {
		if c == n {
			return i
		}
	}
	panic("lifl: foreign node")
}

// onGlobal fires when the top aggregator emits the round's aggregate:
// install the new global model and run the evaluation task (the "Eval"
// spans of Fig. 4 / Fig. 7(c)).
func (s *LIFL) onGlobal(top *aggcore.Aggregator, out aggcore.Update) {
	rs := s.rs
	next, err := s.cfg.ServerOpt.Apply(s.global, out.Tensor)
	if err != nil {
		panic(fmt.Sprintf("lifl: global update: %v", err))
	}
	s.global = next
	rs.aggDone = s.Eng.Now()
	// Appendix B: checkpoint asynchronously in the background so the
	// upload never lands on the aggregation critical path.
	if period := s.cfg.Params.CheckpointPeriodRounds; period > 0 && rs.round%period == 0 {
		s.Ckpt.SaveAsync(rs.round, s.global, nil)
	}
	eval := top.Node.P.EvalTime(s.cfg.Model.Bytes())
	top.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
		s.cfg.Tracer.Add(top.TraceName, trace.KindEval, start, end, rs.round)
		s.finishRound(rs)
	})
}

// finishRound assembles the result and releases round state.
func (s *LIFL) finishRound(rs *liflRound) {
	rs.finished = true
	end := s.Eng.Now()
	// ACT is the aggregation completion time: it ends when the new global
	// model is installed; evaluation runs after and is excluded.
	act := rs.aggDone - rs.start
	if !rs.injected && rs.hasFirst {
		act = rs.aggDone - rs.first
	}
	nodes := make(map[int]bool)
	for _, n := range rs.assignNode {
		nodes[n] = true
	}
	nodes[rs.topNode] = true
	res := RoundResult{
		Round:        rs.round,
		Start:        rs.start,
		FirstArrival: rs.first,
		End:          end,
		ACT:          act,
		Updates:      rs.updates,
		AggsCreated:  int(s.createdTotal() - rs.created0),
		AggsActive:   rs.bound(),
		NodesUsed:    len(nodes),
		CPUTime:      s.CPUTime() - rs.cpu0,
	}
	s.cfg.Obs.Gauge("load/act_seconds", obs.Det).Set(act.Seconds())
	s.cfg.Obs.Gauge("load/active_aggs", obs.Det).Set(float64(s.ActiveAggregators()))
	s.cfg.Obs.Gauge("load/arrival_rate_per_min", obs.Det).Set(s.arrivals.Rate())
	s.park(rs)
	if rs.done != nil {
		rs.done(res)
	}
}
