package runtime

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// State is a sandbox lifecycle state.
type State int

// Sandbox lifecycle: Starting → Idle ⇄ Busy → Terminated.
const (
	StateStarting State = iota
	StateIdle
	StateBusy
	StateTerminated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrTerminated is returned for operations on a dead sandbox.
var ErrTerminated = errors.New("runtime: sandbox terminated")

// Sandbox is one function instance (an aggregator process in a container).
type Sandbox struct {
	ID   string
	Node *cluster.Node
	// Kind is the deployment the sandbox belongs to (e.g. "leaf",
	// "middle"). Warm reuse only happens within a kind: a Knative-style
	// platform cannot hand a leaf's pod to the middle deployment. LIFL's
	// homogenized runtimes sidestep this via explicit role conversion
	// (§5.3), not via the warm pool.
	Kind  string
	state State

	CreatedAt sim.Duration
	ReadyAt   sim.Duration
	LastIdle  sim.Duration
	ColdStart bool

	// OnReclaim, if set, fires when the keep-alive reaper terminates the
	// sandbox; managers use it to de-register routes.
	OnReclaim func(*Sandbox)

	// Pinned exempts the sandbox from keep-alive reclamation while its
	// aggregator still owes output for an in-flight round (a lazy
	// aggregator waiting for its goal is idle but must not be reaped).
	Pinned bool

	// seq is the sandbox's creation order on its manager (the number in
	// its ID); takeIdle breaks LastIdle ties by it.
	seq           int
	mem           uint64
	upkeepSettled sim.Duration
	mgr           *Manager

	// expiry is the sandbox's keep-alive check, bound once to expire and
	// re-armed by SetIdle; expiryMark is the LastIdle it checks against.
	expiry     sim.Timer
	expiryMark sim.Duration
}

// settleUpkeep charges the sandbox's continuous runtime CPU drain accrued
// since the last settlement.
func (s *Sandbox) settleUpkeep() {
	now := s.Node.Eng.Now()
	if now <= s.upkeepSettled {
		return
	}
	drain := sim.Duration(float64(now-s.upkeepSettled) * s.Node.P.RuntimeUpkeepCPUFrac)
	s.Node.ExecFree("runtime-upkeep", drain)
	s.upkeepSettled = now
}

// State returns the current lifecycle state.
func (s *Sandbox) State() State { return s.state }

// SetBusy transitions Idle→Busy.
func (s *Sandbox) SetBusy() error {
	if s.state == StateTerminated {
		return fmt.Errorf("%w: %s", ErrTerminated, s.ID)
	}
	s.state = StateBusy
	return nil
}

// SetIdle transitions to Idle and timestamps it for keep-alive reclamation.
// A one-shot expiry check is armed so idle instances are reclaimed on time
// even when the control plane is otherwise quiet. The check passes only if
// the sandbox is idle with this same LastIdle when it fires, so a check
// armed at an earlier instant can never pass once LastIdle moves on: it is
// stopped, not left queued. Going busy or a warm start stops nothing — the
// sandbox can be idle again at the same LastIdle (a warm start returns to
// Idle without calling SetIdle), and then the armed check still counts.
func (s *Sandbox) SetIdle() error {
	if s.state == StateTerminated {
		return fmt.Errorf("%w: %s", ErrTerminated, s.ID)
	}
	s.state = StateIdle
	s.LastIdle = s.Node.Eng.Now()
	if s.mgr == nil || s.mgr.DisableKeepAlive {
		return nil
	}
	delay := s.Node.P.KeepAliveIdle + sim.Millisecond
	if s.expiry.Armed() && s.expiryMark == s.LastIdle {
		// Idle again at the instant of the armed check, which can still
		// pass: keep it, and queue this spell's own check behind it.
		mark := s.LastIdle
		s.Node.Eng.After(delay, func() {
			if s.state == StateIdle && s.LastIdle == mark {
				s.mgr.ReapIdle()
			}
		})
		return nil
	}
	s.expiryMark = s.LastIdle
	s.expiry.Reset(delay)
	return nil
}

// expire is the keep-alive check SetIdle arms: reap only if the sandbox has
// stayed idle since the mark.
func (s *Sandbox) expire() {
	if s.state == StateIdle && s.LastIdle == s.expiryMark {
		s.mgr.ReapIdle()
	}
}

// Manager is the per-node lifecycle manager (the LIFL agent's runtime duty,
// or the Knative-like controller for the baselines).
type Manager struct {
	Node *cluster.Node

	sandboxes map[string]*Sandbox
	nextID    int

	// Stats.
	ColdStarts uint64
	WarmStarts uint64
	Created    uint64
	Reclaimed  uint64

	// DisableKeepAlive turns off idle reclamation (serverful always-on).
	DisableKeepAlive bool
}

// NewManager creates a manager for the node.
func NewManager(n *cluster.Node) *Manager {
	return &Manager{Node: n, sandboxes: make(map[string]*Sandbox)}
}

// Start launches a new sandbox. If a warm idle sandbox exists it is reused
// (warm start); otherwise a cold start is charged (delay + CPU + memory).
// ready fires when the sandbox can serve, receiving the instance.
func (m *Manager) Start(prefix string, ready func(*Sandbox)) *Sandbox {
	// Expired idle instances must not be handed out as warm: reap first, so
	// keep-alive semantics hold even between the agent's periodic sweeps.
	m.ReapIdle()
	if sb := m.takeIdle(prefix); sb != nil {
		m.WarmStarts++
		sb.state = StateStarting
		m.Node.Eng.After(m.Node.P.WarmStartDelay, func() {
			if sb.state == StateTerminated {
				return
			}
			sb.state = StateIdle
			sb.ReadyAt = m.Node.Eng.Now()
			if ready != nil {
				ready(sb)
			}
		})
		return sb
	}
	m.nextID++
	m.Created++
	m.ColdStarts++
	sb := &Sandbox{
		ID:            fmt.Sprintf("%s-%s-%d", prefix, m.Node.Name, m.nextID),
		Node:          m.Node,
		Kind:          prefix,
		state:         StateStarting,
		CreatedAt:     m.Node.Eng.Now(),
		ColdStart:     true,
		mem:           m.Node.P.AggregatorMemBytes,
		upkeepSettled: m.Node.Eng.Now(),
		mgr:           m,
		seq:           m.nextID,
	}
	sb.expiry = m.Node.Eng.NewTimer(sb.expire)
	m.sandboxes[sb.ID] = sb
	m.Node.AllocMem(sb.mem)
	// Cold start: the container/runtime initialization occupies CPU and
	// delays readiness (the cascading cold-start effect of §2.3 arises when
	// chains of these are started reactively).
	m.Node.Exec("runtime", costColdCPU(m.Node), nil)
	m.Node.Eng.After(m.Node.P.ColdStartDelay, func() {
		if sb.state == StateTerminated {
			return
		}
		sb.state = StateIdle
		sb.ReadyAt = m.Node.Eng.Now()
		if ready != nil {
			ready(sb)
		}
	})
	return sb
}

func costColdCPU(n *cluster.Node) sim.Duration {
	return sim.Duration(n.P.ColdStartCycles / 2.8e9 * float64(sim.Second))
}

// takeIdle pops a warm idle sandbox of the given kind, preferring the most
// recently idle (better cache behaviour, standard warm-pool policy) and,
// among sandboxes idle since the same instant, the earliest created — so
// the pick never depends on map iteration order.
func (m *Manager) takeIdle(kind string) *Sandbox {
	var best *Sandbox
	for _, sb := range m.sandboxes {
		if sb.state != StateIdle || sb.Kind != kind || sb.Pinned {
			continue
		}
		if best == nil || sb.LastIdle > best.LastIdle || (sb.LastIdle == best.LastIdle && sb.seq < best.seq) {
			best = sb
		}
	}
	return best
}

// IdleCount returns the number of warm idle sandboxes.
func (m *Manager) IdleCount() int {
	n := 0
	for _, sb := range m.sandboxes {
		if sb.state == StateIdle {
			n++
		}
	}
	return n
}

// LiveCount returns sandboxes not yet terminated.
func (m *Manager) LiveCount() int { return len(m.sandboxes) }

// Terminate destroys a sandbox, freeing its memory. Its armed keep-alive
// check can no longer pass, so it is stopped.
func (m *Manager) Terminate(sb *Sandbox) {
	if sb.state == StateTerminated {
		return
	}
	sb.settleUpkeep()
	sb.expiry.Stop()
	sb.state = StateTerminated
	m.Node.FreeMem(sb.mem)
	delete(m.sandboxes, sb.ID)
}

// SettleUpkeep charges accrued runtime-upkeep CPU for all live sandboxes;
// systems call it before reading cost counters.
func (m *Manager) SettleUpkeep() {
	for _, sb := range m.sandboxes {
		sb.settleUpkeep()
	}
}

// ReapIdle terminates idle sandboxes whose keep-alive expired. Call it
// periodically (the agent does, at every round boundary).
func (m *Manager) ReapIdle() int {
	if m.DisableKeepAlive {
		return 0
	}
	now := m.Node.Eng.Now()
	reaped := 0
	// Map order is safe here: everything OnReclaim and Terminate do
	// commutes — integer CPU and memory sums, map deletes, and stops of
	// timer events the engine orders by (time, seq) in any stop order.
	for _, sb := range m.sandboxes {
		if sb.state == StateIdle && !sb.Pinned && now-sb.LastIdle >= m.Node.P.KeepAliveIdle {
			if sb.OnReclaim != nil {
				sb.OnReclaim(sb)
			}
			m.Terminate(sb)
			m.Reclaimed++
			reaped++
		}
	}
	return reaped
}

// TerminateAll tears everything down (end of experiment).
func (m *Manager) TerminateAll() {
	for _, sb := range m.sandboxes {
		sb.expiry.Stop()
		sb.state = StateTerminated
		m.Node.FreeMem(sb.mem)
	}
	m.sandboxes = make(map[string]*Sandbox)
}
