package cluster

import (
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/ebpf"
	"repro/internal/shm"
	"repro/internal/sim"
)

// Node is one worker machine.
type Node struct {
	Name string
	Eng  *sim.Engine
	P    costmodel.Params

	// CPU is the shared core pool; all userspace work contends here.
	CPU *sim.Station
	// KernelStack serializes kernel TCP/IP traversals with limited
	// parallelism — the network-processing contention of Fig. 4. LIFL's
	// shared-memory path bypasses it entirely.
	KernelStack *sim.Station
	// Egress and Ingress are the NIC directions (10 Gb/s each).
	Egress  *sim.Queue
	Ingress *sim.Queue
	// Shm is the node's shared-memory object store.
	Shm *shm.Store
	// SockMap and SKMSG are the node's in-kernel eBPF state: the
	// registered sockets and the SKMSG program over them (the eBPF sidecar
	// core).
	SockMap *ebpf.SockMap
	SKMSG   *ebpf.SKMSGProgram

	// Memory accounting (resident bytes excluding shm, which tracks itself).
	memUsed uint64
	memPeak uint64

	// cpuByComponent attributes consumed CPU time to named components.
	cpuByComponent map[string]sim.Duration

	// Always-on reservations (serverful accounting): component → cores and
	// reservation start. Released reservations accumulate into reservedTotal.
	reservations  map[string]reservation
	reservedTotal sim.Duration
}

type reservation struct {
	cores float64
	since sim.Duration
}

// NewNode builds a node with the hardware from p.
func NewNode(eng *sim.Engine, rng *sim.RNG, name string, p costmodel.Params) *Node {
	n := &Node{
		Name:           name,
		Eng:            eng,
		P:              p,
		CPU:            sim.NewStation(eng, name+"/cpu", p.CoresPerNode),
		KernelStack:    sim.NewStation(eng, name+"/kstack", max(1, p.KernelStackParallelism)),
		Egress:         sim.NewQueue(eng, name+"/tx", p.NICBandwidth, p.NICLatency),
		Ingress:        sim.NewQueue(eng, name+"/rx", p.NICBandwidth, p.NICLatency),
		Shm:            shm.NewStore(eng, rng, name, p.MemPerNode),
		SockMap:        ebpf.NewSockMap(),
		cpuByComponent: make(map[string]sim.Duration),
		reservations:   make(map[string]reservation),
	}
	n.SKMSG = ebpf.NewSKMSGProgram(n.SockMap)
	return n
}

// Exec submits CPU-bound work attributed to component. done (optional) fires
// at completion with (start, end).
func (n *Node) Exec(component string, demand sim.Duration, done func(start, end sim.Duration)) {
	n.cpuByComponent[component] += demand
	n.CPU.Submit(demand, done)
}

// ExecAttributed submits work occupying a core for demand while attributing
// cpu CPU time to component. The data plane uses this where a path's latency
// and its charged CPU cycles are calibrated separately (Fig. 7(a) vs 7(b)).
func (n *Node) ExecAttributed(component string, demand, cpu sim.Duration, done func(start, end sim.Duration)) {
	n.cpuByComponent[component] += cpu
	n.CPU.Submit(demand, done)
}

// KernelExec submits a kernel TCP/IP traversal: it occupies the node's
// kernel-stack station for demand and attributes cpu to component.
func (n *Node) KernelExec(component string, demand, cpu sim.Duration, done func(start, end sim.Duration)) {
	n.cpuByComponent[component] += cpu
	n.KernelStack.Submit(demand, done)
}

// ExecFree accounts CPU time to component without occupying the core pool —
// used for strictly in-kernel work (eBPF program runs) whose microsecond
// scale would otherwise distort FIFO admission of big jobs.
func (n *Node) ExecFree(component string, demand sim.Duration) {
	n.cpuByComponent[component] += demand
}

// CPUTime returns total CPU time consumed by component so far.
func (n *Node) CPUTime(component string) sim.Duration { return n.cpuByComponent[component] }

// TotalCPUTime returns CPU time consumed across all components.
func (n *Node) TotalCPUTime() sim.Duration {
	var t sim.Duration
	for _, d := range n.cpuByComponent {
		t += d
	}
	return t
}

// CPUBreakdown returns per-component CPU time, sorted by component name.
func (n *Node) CPUBreakdown() []ComponentCPU {
	out := make([]ComponentCPU, 0, len(n.cpuByComponent))
	for c, d := range n.cpuByComponent {
		out = append(out, ComponentCPU{Component: c, Time: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// ComponentCPU is one row of a CPU breakdown.
type ComponentCPU struct {
	Component string
	Time      sim.Duration
}

// Reserve starts an always-on reservation of cores (possibly fractional,
// e.g. CPU shares) for component — serverful accounting: the resources are
// charged whether used or not.
func (n *Node) Reserve(component string, cores float64) {
	if _, dup := n.reservations[component]; dup {
		panic(fmt.Sprintf("cluster: duplicate reservation %q on %s", component, n.Name))
	}
	n.reservations[component] = reservation{cores: cores, since: n.Eng.Now()}
}

// Unreserve ends a reservation, folding its core-time into the total.
func (n *Node) Unreserve(component string) {
	r, ok := n.reservations[component]
	if !ok {
		return
	}
	n.reservedTotal += sim.Duration(float64(n.Eng.Now()-r.since) * r.cores)
	delete(n.reservations, component)
}

// ReservedCPUTime returns accumulated always-on core-time, including open
// reservations up to the current instant.
func (n *Node) ReservedCPUTime() sim.Duration {
	t := n.reservedTotal
	for _, r := range n.reservations {
		t += sim.Duration(float64(n.Eng.Now()-r.since) * r.cores)
	}
	return t
}

// AllocMem charges resident memory (sidecars, aggregator runtimes, broker
// buffers). Panics on overflow beyond the node's physical memory: the
// simulation treats that as a modelling bug, like the scheduler would OOM.
func (n *Node) AllocMem(bytes uint64) {
	n.memUsed += bytes
	if n.memUsed+n.Shm.Used() > n.P.MemPerNode {
		panic(fmt.Sprintf("cluster: node %s out of memory (%d resident + %d shm)", n.Name, n.memUsed, n.Shm.Used()))
	}
	if n.memUsed > n.memPeak {
		n.memPeak = n.memUsed
	}
}

// FreeMem releases resident memory.
func (n *Node) FreeMem(bytes uint64) {
	if bytes > n.memUsed {
		panic(fmt.Sprintf("cluster: node %s freeing %d > used %d", n.Name, bytes, n.memUsed))
	}
	n.memUsed -= bytes
}

// MemUsed returns resident bytes excluding shm.
func (n *Node) MemUsed() uint64 { return n.memUsed }

// MemPeak returns the high-water mark of resident bytes.
func (n *Node) MemPeak() uint64 { return n.memPeak }

// Cluster is the set of worker nodes plus the simulation context they share.
type Cluster struct {
	Eng   *sim.Engine
	RNG   *sim.RNG
	P     costmodel.Params
	Nodes []*Node

	byName map[string]*Node
}

// New builds a cluster of n worker nodes named node-0..node-(n-1).
func New(eng *sim.Engine, rng *sim.RNG, p costmodel.Params, n int) *Cluster {
	c := &Cluster{Eng: eng, RNG: rng, P: p, byName: make(map[string]*Node, n)}
	for i := 0; i < n; i++ {
		node := NewNode(eng, rng, fmt.Sprintf("node-%d", i), p)
		c.Nodes = append(c.Nodes, node)
		c.byName[node.Name] = node
	}
	return c
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.byName[name] }

// TotalCPUTime sums usage-based CPU time over all nodes.
func (c *Cluster) TotalCPUTime() sim.Duration {
	var t sim.Duration
	for _, n := range c.Nodes {
		t += n.TotalCPUTime()
	}
	return t
}

// TotalReservedCPUTime sums always-on reservations over all nodes.
func (c *Cluster) TotalReservedCPUTime() sim.Duration {
	var t sim.Duration
	for _, n := range c.Nodes {
		t += n.ReservedCPUTime()
	}
	return t
}
