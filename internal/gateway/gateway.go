package gateway

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// ErrNoRoute is returned when an inter-node destination is unknown.
var ErrNoRoute = errors.New("gateway: no route for destination")

// GatewayMemBytes is the resident footprint of the gateway process — the
// stateful "tax" quantified in Appendix F.1 (lowest among the alternatives).
const GatewayMemBytes = 96 << 20

// Update is a model update as the gateway sees it before shm commit.
type Update struct {
	Tensor   *tensor.Tensor
	Weight   float64 // FedAvg auxiliary info (sample count / child total)
	Size     uint64  // payload bytes on the wire
	NTensors int     // layer count, for per-tensor serialization costs
	Round    int
	Producer string
}

// Gateway is one node's gateway instance.
type Gateway struct {
	Node *cluster.Node

	// cores is the gateway's dedicated CPU station (vertical scaling).
	cores *sim.Station

	// routes maps remote aggregator ID → node name (inter-node table).
	routes map[string]string
	// peers resolves node names to gateways for cross-node sends.
	peers map[string]*Gateway

	// Stats.
	Received   uint64
	SentRemote uint64
	RelayedIn  uint64
	scaleUps   int
	lastScale  sim.Duration
}

// New creates the gateway for a node, charging its resident memory.
func New(n *cluster.Node) *Gateway {
	g := &Gateway{
		Node:   n,
		cores:  sim.NewStation(n.Eng, n.Name+"/gw", n.P.GatewayCores),
		routes: make(map[string]string),
		peers:  make(map[string]*Gateway),
	}
	n.AllocMem(GatewayMemBytes)
	return g
}

// Connect registers peer gateways for inter-node routing.
func Connect(gws ...*Gateway) {
	for _, a := range gws {
		for _, b := range gws {
			a.peers[b.Node.Name] = b
		}
	}
}

// SetRoute installs dstID → nodeName in the inter-node routing table (route
// updates pushed by the control plane on every hierarchy change).
func (g *Gateway) SetRoute(dstID, nodeName string) { g.routes[dstID] = nodeName }

// DropRoute removes a route.
func (g *Gateway) DropRoute(dstID string) { delete(g.routes, dstID) }

// Routes returns the number of installed inter-node routes.
func (g *Gateway) Routes() int { return len(g.routes) }

// Cores returns the gateway's current core assignment.
func (g *Gateway) Cores() int { return g.cores.Servers() }

// BusyTime returns cumulative gateway CPU time.
func (g *Gateway) BusyTime() sim.Duration { return g.cores.BusyTime() }

// exec runs gateway work on the gateway's cores, attributing CPU to the
// node's "gateway" component and auto-scaling vertically on backlog.
func (g *Gateway) exec(demand, cpu sim.Duration, done func()) {
	g.autoscale()
	g.Node.ExecFree("gateway", cpu)
	g.cores.Submit(demand, func(_, _ sim.Duration) {
		if done != nil {
			done()
		}
	})
}

// autoscale applies the vertical scaling policy of §4.2: add a core when the
// backlog exceeds half a second of work, shed back toward the floor when the
// station is fully drained.
func (g *Gateway) autoscale() {
	p := g.Node.P
	now := g.Node.Eng.Now()
	// Rate-limited: core reassignment is a control-plane action, not
	// instantaneous — at most one core per second.
	if g.cores.NextFreeIn() > 500*sim.Millisecond && g.cores.Servers() < p.GatewayCoresMax &&
		(g.scaleUps == 0 || now-g.lastScale >= sim.Second) {
		g.cores.Resize(g.cores.Servers() + 1)
		g.scaleUps++
		g.lastScale = now
	}
}

// ReceiveExternal ingests a client upload: wire time on the node ingress
// NIC, kernel RX, then the gateway RX pipeline (deserialize + data-type
// conversion + shm write, Appendix C). committed fires with the shm key once
// the update is queued in place.
func (g *Gateway) ReceiveExternal(u Update, committed func(shm.Key)) {
	p := g.Node.P
	rxLat, rxCPU := p.KernelTraversal(u.Size)
	g.Node.Ingress.Transfer(u.Size, func(_, _ sim.Duration) {
		g.Node.KernelExec("gateway", rxLat, rxCPU, func(_, _ sim.Duration) {
			g.commit(u, committed)
		})
	})
}

// commit runs the one-time payload processing and writes the update into
// shared memory.
func (g *Gateway) commit(u Update, committed func(shm.Key)) {
	p := g.Node.P
	desLat, desCPU := p.Deserialize(u.Size, u.NTensors)
	shmLat, shmCPU := p.ShmWrite(u.Size)
	g.exec(desLat+shmLat, desCPU+shmCPU, func() {
		key, err := g.Node.Shm.Put(u.Tensor, u.Weight, u.Producer, u.Round)
		if err != nil {
			// Out of space is a modelling bug at experiment scale.
			panic(fmt.Sprintf("gateway %s: %v", g.Node.Name, err))
		}
		g.Received++
		committed(key)
	})
}

// SendRemote transfers the object behind key to dstID on another node
// (Appendix A inter-node routing): read from local shm, serialize + kernel
// TX on this gateway, wire, then the remote gateway re-commits the payload
// into its own shm. The local reference is released after the read.
// delivered fires with the *remote* shm key; the caller hands it to the
// destination aggregator over the remote node's SKMSG channel (Fig. 12).
func (g *Gateway) SendRemote(srcID string, key shm.Key, dstID string, delivered func(shm.Key)) error {
	nodeName, ok := g.routes[dstID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoute, dstID)
	}
	peer, ok := g.peers[nodeName]
	if !ok {
		return fmt.Errorf("gateway: route for %s names unknown node %s", dstID, nodeName)
	}
	obj, err := g.Node.Shm.Get(key)
	if err != nil {
		return err
	}
	p := g.Node.P
	u := Update{
		Tensor:   obj.Tensor,
		Weight:   obj.Weight,
		Size:     obj.Size,
		NTensors: 1,
		Round:    obj.Round,
		Producer: srcID,
	}
	serLat, serCPU := p.Serialize(obj.Size, u.NTensors)
	txLat, txCPU := p.KernelTraversal(obj.Size)
	// Reading the payload out of shared memory for serialization is a real
	// copy in the reference implementation (Python multiprocessing pool).
	readLat, readCPU := p.ShmWrite(obj.Size)
	g.exec(readLat+serLat, readCPU+serCPU, func() {
		g.SentRemote++
		// Payload leaves local shm once serialized out.
		if err := g.Node.Shm.Release(key); err != nil {
			panic(fmt.Sprintf("gateway %s: release: %v", g.Node.Name, err))
		}
		g.Node.KernelExec("gateway", txLat, txCPU, func(_, _ sim.Duration) {
			g.Node.Egress.Transfer(u.Size, func(_, _ sim.Duration) {
				peer.Node.Ingress.Transfer(u.Size, func(_, _ sim.Duration) {
					peer.receiveRelay(u, delivered)
				})
			})
		})
	})
	return nil
}

// receiveRelay is the remote half of SendRemote: kernel RX + re-commit to
// local shm.
func (g *Gateway) receiveRelay(u Update, delivered func(shm.Key)) {
	p := g.Node.P
	rxLat, rxCPU := p.KernelTraversal(u.Size)
	g.Node.KernelExec("gateway", rxLat, rxCPU, func(_, _ sim.Duration) {
		g.commit(u, func(key shm.Key) {
			g.RelayedIn++
			delivered(key)
		})
	})
}

// UnloadedRelayLatency reports the zero-contention latency of a full
// gateway-to-gateway transfer of size bytes — the §6.1 "≈4.2 s for
// ResNet-152 across nodes" calibration point.
func UnloadedRelayLatency(n *cluster.Node, size uint64) sim.Duration {
	p := n.P
	serLat, _ := p.Serialize(size, 1)
	txLat, _ := p.KernelTraversal(size)
	rxLat, _ := p.KernelTraversal(size)
	desLat, _ := p.Deserialize(size, 1)
	shmLat, _ := p.ShmWrite(size)
	// shm appears twice: the sender reads the payload out for serialization
	// and the receiver re-commits it in place. Wire time appears twice: the
	// payload occupies both the sender egress and receiver ingress NICs.
	return shmLat + serLat + txLat + 2*p.WireTime(size) + 2*p.NICLatency + rxLat + desLat + shmLat
}
