package sidecar

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/ebpf"
	"repro/internal/shm"
	"repro/internal/sim"
)

func rig() (*sim.Engine, *cluster.Node) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	return eng, c.Nodes[0]
}

func TestContainerInterceptCostsLatencyAndCPU(t *testing.T) {
	eng, n := rig()
	sc := NewContainer(n, "agg-1")
	var done sim.Duration
	sc.Intercept(100<<20, func() { done = eng.Now() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	wantLat, _ := n.P.SidecarHop(100 << 20)
	if done != wantLat {
		t.Fatalf("intercept latency = %v, want %v", done, wantLat)
	}
	if n.CPUTime("sidecar") == 0 {
		t.Fatal("no sidecar CPU charged")
	}
	if sc.Intercepts != 1 {
		t.Fatalf("intercepts = %d", sc.Intercepts)
	}
}

func TestContainerIdleDrainAccrues(t *testing.T) {
	eng, n := rig()
	sc := NewContainer(n, "agg-1")
	eng.After(100*sim.Second, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	want := sim.Duration(float64(100*sim.Second) * n.P.SidecarIdleCPUFrac)
	if got := n.CPUTime("sidecar-idle"); got != want {
		t.Fatalf("idle drain = %v, want %v", got, want)
	}
	// Finalize is idempotent at the same instant.
	sc.Finalize()
	if got := n.CPUTime("sidecar-idle"); got != want {
		t.Fatalf("double settle: %v", got)
	}
}

func TestContainerMemoryLifecycle(t *testing.T) {
	eng, n := rig()
	before := n.MemUsed()
	sc := NewContainer(n, "agg-1")
	if n.MemUsed() != before+n.P.SidecarMemBytes {
		t.Fatal("sidecar memory not charged")
	}
	sc.Stop()
	if n.MemUsed() != before {
		t.Fatal("sidecar memory not freed on stop")
	}
	sc.Stop() // idempotent
	if n.MemUsed() != before {
		t.Fatal("double stop freed twice")
	}
	_ = eng
}

func TestEBPFSidecarZeroIdleCost(t *testing.T) {
	eng, n := rig()
	n.SockMap.Register("top", func(ebpf.Message) {})
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n.TotalCPUTime() != 0 || n.SKMSG.Runs != 0 {
		t.Fatalf("eBPF sidecar consumed %v in %d runs while idle", n.TotalCPUTime(), n.SKMSG.Runs)
	}
}

func TestEBPFSidecarPerEventCost(t *testing.T) {
	eng, n := rig()
	var got ebpf.Message
	var at sim.Duration
	n.SockMap.Register("top", func(m ebpf.Message) { got, at = m, eng.Now() })
	msg := ebpf.Message{SrcID: "leaf", DstID: "top", ShmKey: shm.Key{7}}
	if !KeyPass(n, msg) {
		t.Fatal("key pass to a registered socket was not redirected")
	}
	want := costmodel.Cycles(n.P.EBPFMetricsCycles)
	if got := n.CPUTime("ebpf-sidecar"); got != want {
		t.Fatalf("per-event cost = %v, want %v", got, want)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got != msg || at != n.P.ShmKeyPassLatency {
		t.Fatalf("delivered %+v at %v, want %+v at %v", got, at, msg, n.P.ShmKeyPassLatency)
	}
	if n.SKMSG.Runs != 1 || n.SKMSG.Redirects != 1 {
		t.Fatalf("SKMSG runs/redirects = %d/%d", n.SKMSG.Runs, n.SKMSG.Redirects)
	}
}

func TestEBPFSidecarUnknownDst(t *testing.T) {
	eng, n := rig()
	if KeyPass(n, ebpf.Message{DstID: "ghost"}) {
		t.Fatal("key pass to an unregistered destination reported delivery")
	}
	if n.SKMSG.Drops != 1 {
		t.Fatalf("drops = %d", n.SKMSG.Drops)
	}
	// The event still ran the program, so it still costs one invocation;
	// nothing is scheduled for the caller to wait on.
	if got := n.CPUTime("ebpf-sidecar"); got != costmodel.Cycles(n.P.EBPFMetricsCycles) {
		t.Fatalf("per-event cost = %v", got)
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events scheduled for a dropped message", eng.Pending())
	}
}

// The paper's comparison: for one message, the container sidecar costs
// orders of magnitude more CPU than the eBPF sidecar.
func TestContainerVsEBPFPerMessageCost(t *testing.T) {
	eng, n := rig()
	sc := NewContainer(n, "a")
	sc.Intercept(232<<20, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	container := n.CPUTime("sidecar")
	n.SockMap.Register("top", func(ebpf.Message) {})
	KeyPass(n, ebpf.Message{SrcID: "a", DstID: "top"})
	ebpfCost := n.CPUTime("ebpf-sidecar")
	if ebpfCost != costmodel.Cycles(n.P.EBPFMetricsCycles) || container < 1000*ebpfCost {
		t.Fatalf("container %v vs eBPF %v: expected ≫1000x gap", container, ebpfCost)
	}
}
