package aggcore

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fedavg"
	"repro/internal/runtime"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Role is an aggregator's level in the hierarchy.
type Role int

// Hierarchy levels (§2.2): leaves absorb client updates, middles combine
// leaves, the single top produces the new global model.
const (
	RoleLeaf Role = iota
	RoleMiddle
	RoleTop
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleMiddle:
		return "middle"
	case RoleTop:
		return "top"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Mode selects the aggregation timing of Fig. 1.
type Mode int

// Eager aggregates every update on arrival; Lazy queues until the goal's
// worth of updates is present, then aggregates the batch.
const (
	Eager Mode = iota
	Lazy
)

// Update is one model update flowing through the hierarchy.
type Update struct {
	Tensor   *tensor.Tensor
	Weight   float64
	Size     uint64 // virtual payload bytes
	Round    int
	Producer string
	// Key/Store are set when the payload is resident in shared memory; the
	// aggregator releases its reference after folding the update in.
	Key   shm.Key
	Store *shm.Store
}

// Release drops the update's shm reference, if any — the round-closure
// path for updates still parked on a retired logical name. The reference
// is cleared, so calling it again is a no-op.
func (u *Update) Release() { u.release() }

// release drops the shm reference, if any.
func (u *Update) release() {
	if u.Store != nil {
		if err := u.Store.Release(u.Key); err != nil {
			panic(fmt.Sprintf("aggcore: releasing %s: %v", u.Key, err))
		}
		u.Store = nil
	}
}

// Transport ships an aggregator's output to its consumer. LIFL's transport
// writes to shm and passes keys (or relays via gateways across nodes); the
// baselines serialize through brokers and sidecars.
type Transport interface {
	SendResult(src *Aggregator, out Update, dstID string)
}

// Aggregator is one instance. All methods must be called from simulation
// callbacks (single-threaded virtual time).
type Aggregator struct {
	ID   string
	Role Role
	Node *cluster.Node
	// Sandbox is the runtime instance hosting this aggregator; nil for
	// always-on serverful deployments.
	Sandbox *runtime.Sandbox

	// Goal is the aggregation goal n of Eq. (1): updates to fold before Send.
	Goal int
	Mode Mode
	// DstID names the consumer aggregator; unused when OnComplete is set.
	DstID string
	Round int

	Transport Transport
	// OnComplete, when set (top aggregator), receives the final aggregate
	// instead of Transport.
	OnComplete func(*Aggregator, Update)

	// Reweigh, when set, recomputes an update's effective FedAvg weight at
	// the moment it is folded (the Agg-step dequeue) instead of when it
	// arrived. The buffered-async system uses it for staleness decay
	// measured against the model version current at fold time (there,
	// Update.Round carries the producer's base version). Returning a weight
	// <= 0 discards the update: its shm reference is released, Discarded
	// increments, and the aggregation goal does not advance. The update's
	// stored Weight is never mutated, so a §3 failover replay re-weighs
	// from the original value.
	Reweigh func(Update) float64

	Tracer *trace.Recorder
	// TraceName is the actor label in timelines ("LF1", "Top", ...).
	TraceName string

	// Proc is the aggregator's single-threaded process: every Recv/Agg/Send
	// step serializes through it (§5.2 "the steps within a LIFL aggregator
	// are executed sequentially"). This is what makes a single aggregator's
	// receive path a bottleneck in Fig. 4's NH baseline.
	Proc *sim.Station

	algo  fedavg.Algorithm
	state fedavg.State
	// queue is the Recv FIFO, managed as a ring: qhead indexes the next
	// entry, and the backing array is recycled once drained, so steady-state
	// enqueueing does not allocate.
	queue []Update
	qhead int
	// consumed keeps every folded update (with its shm reference) until
	// Send: aggregators are stateless, so recovery from a failure replays
	// the in-place updates into a fresh instance (§3). References release
	// in bulk at Send, and the backing array is reused across rounds.
	consumed []Update
	// inflight is the update currently in the Agg step, held by value (a
	// boxed pointer here cost one heap allocation per aggregated update),
	// and inflightW the weight it folds with. folded is onFolded bound once,
	// so an Agg step schedules its completion without a closure.
	inflight    Update
	inflightW   float64
	hasInflight bool
	folded      func(start, end sim.Duration)
	busy        bool
	dead        bool // failed instance: ignore in-flight completions
	done        int  // updates folded into the state this round
	sent        bool // Send already fired this round

	// out is the last output Send handed to Transport, and spare the output
	// buffer Recycle released for the next Result to overwrite.
	out, spare *tensor.Tensor

	// Stats.
	TotalAggregated uint64
	RoundsCompleted uint64
	// Discarded counts updates dropped by Reweigh before folding.
	Discarded uint64
}

// New creates an aggregator with the given algorithm. phys/virtual size the
// accumulator to the model being trained.
func New(id string, role Role, node *cluster.Node, algo fedavg.Algorithm, phys, virtual int) *Aggregator {
	a := &Aggregator{
		ID:        id,
		Role:      role,
		Node:      node,
		Proc:      sim.NewStation(node.Eng, id+"/proc", 1),
		algo:      algo,
		state:     algo.NewState(phys, virtual),
		TraceName: id,
	}
	a.folded = a.onFolded
	return a
}

// Recycle readies a finished instance to serve a new deployment as id in
// role — the warm pool's reuse of a homogenized runtime (§5.3): everything
// New sets up is reset to what New(id, role, ...) on the same node would
// build, and the Go objects behind it are kept: the accumulator state, the
// process station, the queue backing arrays and the last output tensor.
//
// The instance must be quiescent: its last Send done and no step of any
// kind still queued on Proc. An output Send handed to Transport must also
// have been folded by its consumer, because the next Result is written
// into it. An output handed to OnComplete is never reused — the receiver
// may keep it (a top's aggregate becomes the global model).
func (a *Aggregator) Recycle(id string, role Role) {
	if a.dead || a.busy || a.hasInflight || a.Pending() > 0 {
		panic(fmt.Sprintf("aggcore: recycling %s while it still has work", a.ID))
	}
	a.Proc.Reset()
	a.state.Reset()
	*a = Aggregator{
		ID:        id,
		Role:      role,
		Node:      a.Node,
		TraceName: id,
		Proc:      a.Proc,
		algo:      a.algo,
		state:     a.state,
		queue:     a.queue[:0],
		consumed:  a.consumed[:0],
		folded:    a.folded,
		spare:     a.out,
	}
}

// ExecAs runs work on the aggregator's single-threaded process, attributing
// cpu CPU time to component on the node. Transports and ingest pipelines use
// this so destination-side payload processing serializes per aggregator,
// like the reference implementation's per-process receive loop.
func (a *Aggregator) ExecAs(component string, demand, cpu sim.Duration, done func(start, end sim.Duration)) {
	a.Node.ExecFree(component, cpu)
	a.Proc.Submit(demand, done)
}

// Pending returns FIFO occupancy (queued, not yet aggregated).
func (a *Aggregator) Pending() int { return len(a.queue) - a.qhead }

// Done returns updates aggregated this round.
func (a *Aggregator) Done() int { return a.done }

// Idle reports whether the aggregator has finished its task for the round —
// the condition under which §5.3 converts it to a higher role.
func (a *Aggregator) Idle() bool { return a.sent && !a.busy && a.Pending() == 0 }

// Assign (re)targets the aggregator for a round: its role, goal, consumer,
// and round number. State is reset; the homogenized runtime needs nothing
// else (§5.3 "No further change is required as LIFL's aggregator runtime is
// stateless").
func (a *Aggregator) Assign(role Role, goal int, dstID string, round int) {
	if goal <= 0 {
		panic(fmt.Sprintf("aggcore: %s assigned non-positive goal %d", a.ID, goal))
	}
	a.Role = role
	a.Goal = goal
	a.DstID = dstID
	a.Round = round
	a.state.Reset()
	a.done = 0
	a.sent = false
	if a.Sandbox != nil {
		// The instance owes this round an output; exempt it from
		// keep-alive reclamation until Send fires.
		a.Sandbox.Pinned = true
	}
	// Any queued updates for the new assignment stay; stale ones were
	// consumed by the previous round's goal.
}

// ConvertRole is Assign plus the small in-place conversion delay of §5.3,
// after which ready fires. It models the coordinator's role flip of a warm,
// idle instance (leaf→middle, middle→top).
func (a *Aggregator) ConvertRole(role Role, goal int, dstID string, round int, ready func()) {
	a.Node.Eng.After(a.Node.P.RoleConvertDelay, func() {
		a.Assign(role, goal, dstID, round)
		if ready != nil {
			ready()
		}
	})
}

// Receive is the Recv step: enqueue one update (in LIFL, the caller has
// already placed the payload in shm and only the key reaches the FIFO).
func (a *Aggregator) Receive(u Update) {
	a.queue = append(a.queue, u)
	switch a.Mode {
	case Eager:
		a.pump()
	case Lazy:
		// Lazy: begin only when the whole goal's worth has arrived.
		if a.Pending()+a.done >= a.Goal {
			a.pump()
		}
	}
}

// pump drives the Agg step: one FIFO entry at a time, sequential (the steps
// within an aggregator execute sequentially, §5.2).
func (a *Aggregator) pump() {
	if a.busy || a.sent || a.Pending() == 0 {
		return
	}
	if a.Sandbox != nil && a.Sandbox.State() == runtime.StateStarting {
		return // not ready yet; kicked again via NotifyReady
	}
	u := a.queue[a.qhead]
	a.queue[a.qhead] = Update{} // drop the ring slot's references
	a.qhead++
	if a.qhead == len(a.queue) {
		a.queue = a.queue[:0] // drained: recycle the backing array
		a.qhead = 0
	}
	w := u.Weight
	if a.Reweigh != nil {
		if w = a.Reweigh(u); w <= 0 {
			// Discarded at the queue head before any Agg-step work: release
			// the payload and keep draining. The comparison is a version-tag
			// check, so no CPU demand is charged.
			u.release()
			a.Discarded++
			a.pump()
			return
		}
	}
	a.busy = true
	a.inflight = u
	a.inflightW = w
	a.hasInflight = true
	if a.Sandbox != nil {
		_ = a.Sandbox.SetBusy()
	}
	demand := a.Node.P.AggregateOne(u.Size)
	a.ExecAs("aggregator", demand, demand, a.folded)
}

// onFolded completes the Agg step pump started on the inflight update.
func (a *Aggregator) onFolded(start, end sim.Duration) {
	if a.dead {
		return // the instance failed mid-step; the update was replayed
	}
	u := a.inflight
	a.Tracer.Add(a.TraceName, trace.KindAgg, start, end, a.Round)
	if err := a.state.Accumulate(u.Tensor, a.inflightW); err != nil {
		panic(fmt.Sprintf("aggcore %s: %v", a.ID, err))
	}
	a.consumed = append(a.consumed, u)
	a.inflight = Update{}
	a.hasInflight = false
	a.done++
	a.TotalAggregated++
	a.busy = false
	if a.done >= a.Goal {
		a.send()
		return
	}
	if a.Sandbox != nil && a.Pending() == 0 {
		_ = a.Sandbox.SetIdle()
	}
	a.pump()
}

// NotifyReady kicks processing once the hosting sandbox becomes ready (used
// when updates queued in shm during a cold start).
func (a *Aggregator) NotifyReady() { a.pump() }

// FailoverUpdates extracts every update the (failed) aggregator was
// responsible for — queued and already-folded alike, shm references intact —
// so the control plane can replay them into a stateless replacement. The
// aggregator is left inert.
func (a *Aggregator) FailoverUpdates() []Update {
	out := a.consumed
	if a.hasInflight {
		out = append(out, a.inflight)
		a.inflight = Update{}
		a.hasInflight = false
	}
	out = append(out, a.queue[a.qhead:]...)
	// Ownership of the consumed backing array moves to the caller; the
	// (dead) aggregator starts from scratch if ever revived.
	a.consumed = nil
	a.queue = nil
	a.qhead = 0
	a.state.Reset()
	a.done = 0
	a.busy = false
	a.dead = true
	a.sent = true
	return out
}

// send is the Send step: emit the aggregate to the consumer.
func (a *Aggregator) send() {
	var (
		res   = a.spare
		total float64
		err   error
	)
	if res != nil {
		a.spare = nil
		total, err = a.state.ResultInto(res)
	} else {
		res, total, err = a.state.Result()
	}
	if err != nil {
		panic(fmt.Sprintf("aggcore %s: %v", a.ID, err))
	}
	a.sent = true
	a.RoundsCompleted++
	// The aggregate is out; the source updates may now be recycled, and the
	// consumed backing array reused next round (slots zeroed so the round's
	// tensors do not linger).
	for i := range a.consumed {
		a.consumed[i].release()
		a.consumed[i] = Update{}
	}
	a.consumed = a.consumed[:0]
	if a.Sandbox != nil {
		a.Sandbox.Pinned = false
		_ = a.Sandbox.SetIdle()
	}
	out := Update{
		Tensor:   res,
		Weight:   total,
		Size:     res.VirtualBytes(),
		Round:    a.Round,
		Producer: a.ID,
	}
	if a.OnComplete != nil {
		a.out = nil
		a.OnComplete(a, out)
		return
	}
	if a.Transport == nil {
		panic(fmt.Sprintf("aggcore %s: no transport and no OnComplete", a.ID))
	}
	a.out = res
	a.Transport.SendResult(a, out, a.DstID)
}
