package sidecar

import (
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/ebpf"
	"repro/internal/sim"
)

// Container is a container-based sidecar attached to one function instance.
type Container struct {
	Node  *cluster.Node
	Owner string

	startedAt  sim.Duration
	settledAt  sim.Duration // idle CPU charged up to here
	terminated bool

	// Intercepts counts messages mediated.
	Intercepts uint64
}

// NewContainer starts a container sidecar on node for the named owner,
// charging its resident memory immediately.
func NewContainer(n *cluster.Node, owner string) *Container {
	sc := &Container{Node: n, Owner: owner, startedAt: n.Eng.Now(), settledAt: n.Eng.Now()}
	n.AllocMem(n.P.SidecarMemBytes)
	return sc
}

// Intercept mediates one payload through the sidecar: the interception and
// forwarding occupy node CPU and delay delivery. done fires when forwarded.
func (sc *Container) Intercept(size uint64, done func()) {
	sc.Intercepts++
	lat, cpu := sc.Node.P.SidecarHop(size)
	sc.Node.ExecAttributed("sidecar", lat, cpu, func(_, _ sim.Duration) {
		if done != nil {
			done()
		}
	})
}

// settleIdle charges the always-on idle CPU drain accrued since the last
// settlement: SidecarIdleCPUFrac of one core, continuously.
func (sc *Container) settleIdle() {
	now := sc.Node.Eng.Now()
	if now <= sc.settledAt {
		return
	}
	idle := sim.Duration(float64(now-sc.settledAt) * sc.Node.P.SidecarIdleCPUFrac)
	sc.Node.ExecFree("sidecar-idle", idle)
	sc.settledAt = now
}

// Stop terminates the sidecar, settling idle CPU and freeing memory.
func (sc *Container) Stop() {
	if sc.terminated {
		return
	}
	sc.settleIdle()
	sc.Node.FreeMem(sc.Node.P.SidecarMemBytes)
	sc.terminated = true
}

// Finalize settles idle CPU without terminating; experiments call this
// before reading cost counters.
func (sc *Container) Finalize() { sc.settleIdle() }

// KeyPass is one send() event through LIFL's event-driven eBPF sidecar on
// node n: it charges the per-event program cost (EBPFMetricsCycles, the
// sidecar's only CPU — it costs nothing while idle), runs the node's SKMSG
// program, and schedules msg's delivery ShmKeyPassLatency later. It returns
// false when msg.DstID has no socket yet: the update stays in shared memory
// and the caller parks it until the destination binds (in-place queuing).
func KeyPass(n *cluster.Node, msg ebpf.Message) bool {
	n.ExecFree("ebpf-sidecar", costmodel.Cycles(n.P.EBPFMetricsCycles))
	deliver, ok := n.SKMSG.Run(msg)
	if !ok {
		return false
	}
	n.Eng.After(n.P.ShmKeyPassLatency, func() { deliver(msg) })
	return true
}
