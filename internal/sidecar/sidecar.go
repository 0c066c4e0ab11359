package sidecar

import (
	"fmt"

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

// EBPF is LIFL's event-driven sidecar: a thin wrapper over the node's SKMSG
// program. It collects metrics and redirects messages; the only CPU it ever
// consumes is per-event (EBPFMetricsCycles), charged here.
type EBPF struct {
	Node *cluster.Node
}

// NewEBPF attaches the eBPF sidecar abstraction to a node.
func NewEBPF(n *cluster.Node) *EBPF { return &EBPF{Node: n} }

// OnSend runs the SKMSG program for one send() event: records a metric
// sample and resolves the destination socket. The caller schedules delivery.
func (e *EBPF) OnSend(msg ebpf.Message, execTime sim.Duration) (*ebpf.Socket, error) {
	e.Node.ExecFree("ebpf-sidecar", costmodel.Cycles(e.Node.P.EBPFMetricsCycles))
	_, sock, err := e.Node.SKMSG.Run(msg, execTime)
	if err != nil {
		return nil, fmt.Errorf("sidecar on %s: sending to %q: %w", e.Node.Name, msg.DstID, err)
	}
	return sock, nil
}

// Drain returns buffered metric samples (the LIFL agent's periodic scrape).
func (e *EBPF) Drain() []ebpf.MetricSample { return e.Node.SKMSG.DrainMetrics() }
