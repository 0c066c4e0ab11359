package gateway

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/shm"
	"repro/internal/sim"
)

func rig(nodes int) (*sim.Engine, *cluster.Cluster, []*Gateway) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), nodes)
	gws := make([]*Gateway, nodes)
	for i, n := range c.Nodes {
		gws[i] = New(n)
	}
	Connect(gws...)
	return eng, c, gws
}

func upd(m model.Spec, w float64) Update {
	return Update{
		Tensor:   m.NewTensor(),
		Weight:   w,
		Size:     m.Bytes(),
		NTensors: 1,
		Round:    1,
		Producer: "client-1",
	}
}

func TestReceiveExternalCommitsToShm(t *testing.T) {
	eng, c, gws := rig(1)
	var key shm.Key
	gws[0].ReceiveExternal(upd(model.ResNet18, 42), func(k shm.Key) { key = k })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if key == (shm.Key{}) {
		t.Fatal("no commit")
	}
	o, err := c.Nodes[0].Shm.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if o.Weight != 42 || o.Producer != "client-1" {
		t.Fatalf("object: %+v", o)
	}
	if gws[0].Received != 1 {
		t.Fatalf("received = %d", gws[0].Received)
	}
	// The gateway pipeline must have consumed CPU attributed to "gateway".
	if c.Nodes[0].CPUTime("gateway") == 0 {
		t.Fatal("no gateway CPU attribution")
	}
}

func TestSendRemoteDeliversAndReleasesLocal(t *testing.T) {
	eng, c, gws := rig(2)
	u := upd(model.ResNet152, 7)
	var localKey shm.Key
	gws[0].ReceiveExternal(u, func(k shm.Key) { localKey = k })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	gws[0].SetRoute("agg-top", "node-1")
	var remoteKey shm.Key
	sent := eng.Now()
	if err := gws[0].SendRemote("leaf-0", localKey, "agg-top", func(k shm.Key) { remoteKey = k }); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if remoteKey == (shm.Key{}) {
		t.Fatal("no remote delivery")
	}
	// Local object released after serialization; remote object committed.
	if _, err := c.Nodes[0].Shm.Get(localKey); !errors.Is(err, shm.ErrNotFound) {
		t.Fatalf("local object leaked: %v", err)
	}
	o, err := c.Nodes[1].Shm.Get(remoteKey)
	if err != nil {
		t.Fatal(err)
	}
	if o.Weight != 7 {
		t.Fatalf("payload mangled: %+v", o)
	}
	// §6.1: a ResNet-152 relay takes ≈4.2 s unloaded.
	elapsed := eng.Now() - sent
	lo, hi := 3800*sim.Millisecond, 4700*sim.Millisecond
	if elapsed < lo || elapsed > hi {
		t.Fatalf("relay took %v, want ≈4.2s", elapsed)
	}
	if want := UnloadedRelayLatency(c.Nodes[0], u.Size); elapsed != want {
		t.Fatalf("relay %v != analytic %v", elapsed, want)
	}
}

func TestSendRemoteNoRoute(t *testing.T) {
	eng, _, gws := rig(2)
	var key shm.Key
	gws[0].ReceiveExternal(upd(model.ResNet18, 1), func(k shm.Key) { key = k })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if err := gws[0].SendRemote("x", key, "ghost", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestRouteTableOps(t *testing.T) {
	_, _, gws := rig(2)
	gws[0].SetRoute("a", "node-1")
	gws[0].SetRoute("b", "node-1")
	if gws[0].Routes() != 2 {
		t.Fatalf("routes = %d", gws[0].Routes())
	}
	gws[0].DropRoute("a")
	if gws[0].Routes() != 1 {
		t.Fatalf("routes = %d after drop", gws[0].Routes())
	}
}

func TestVerticalScalingUnderLoad(t *testing.T) {
	eng, _, gws := rig(1)
	g := gws[0]
	if g.Cores() != 1 {
		t.Fatalf("initial cores = %d", g.Cores())
	}
	// Flood the gateway with heavyweight commits; backlog must trigger
	// scale-up (§4.2: the gateway must never become the bottleneck).
	for i := 0; i < 40; i++ {
		i := i
		eng.After(sim.Duration(i)*sim.Second, func() {
			g.ReceiveExternal(upd(model.ResNet152, 1), func(k shm.Key) {})
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if g.Cores() <= 1 {
		t.Fatalf("gateway did not scale up under load (cores=%d)", g.Cores())
	}
	if g.Cores() > costmodel.Default().GatewayCoresMax {
		t.Fatalf("gateway exceeded ceiling (cores=%d)", g.Cores())
	}
}

func TestGatewayMemoryFootprint(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	before := c.Nodes[0].MemUsed()
	New(c.Nodes[0])
	if c.Nodes[0].MemUsed() != before+GatewayMemBytes {
		t.Fatal("stateful tax (resident memory) not charged")
	}
}
