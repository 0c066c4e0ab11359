package ebpf

import (
	"testing"

	"repro/internal/shm"
	"repro/internal/sim"
)

func TestMapCRUD(t *testing.T) {
	m := NewMap[string, int]("m")
	if _, ok := m.LookupElem("a"); ok {
		t.Fatal("lookup on empty map")
	}
	m.UpdateElem("a", 1)
	m.UpdateElem("a", 2) // replace
	m.UpdateElem("b", 3)
	if v, ok := m.LookupElem("a"); !ok || v != 2 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	m.DeleteElem("a")
	if _, ok := m.LookupElem("a"); ok {
		t.Fatal("delete failed")
	}
	sum := 0
	m.ForEach(func(_ string, v int) { sum += v })
	if sum != 3 {
		t.Fatalf("foreach sum = %d", sum)
	}
}

func TestSockMapRegisterLookupRemove(t *testing.T) {
	sm := NewSockMap("sm")
	var got shm.Key
	s := sm.Register("agg-1", func(m Message) { got = m.ShmKey })
	if s.FD == 0 {
		t.Fatal("socket without fd")
	}
	sock, ok := sm.Lookup("agg-1")
	if !ok || sock != s {
		t.Fatal("lookup failed")
	}
	sock.Deliver(Message{ShmKey: shm.Key{1}})
	if got != (shm.Key{1}) {
		t.Fatal("deliver did not reach callback")
	}
	// Fig. 12: a remote aggregator's ID can map to the local gateway socket.
	sm.Install("agg-remote", s)
	if got2, ok := sm.Lookup("agg-remote"); !ok || got2 != s {
		t.Fatal("install alias failed")
	}
	sm.Remove("agg-1")
	if _, ok := sm.Lookup("agg-1"); ok {
		t.Fatal("remove failed")
	}
	if sm.Len() != 1 {
		t.Fatalf("len = %d", sm.Len())
	}
}

func TestSKMSGRedirects(t *testing.T) {
	eng := sim.NewEngine()
	sm := NewSockMap("sm")
	metrics := NewMap[uint64, MetricSample]("metrics")
	prog := NewSKMSGProgram(eng, sm, metrics)
	sm.Register("top", func(Message) {})

	v, sock, err := prog.Run(Message{SrcID: "leaf", DstID: "top", ShmKey: shm.Key{2}, Size: 16, Kind: "update"}, 2*sim.Second)
	if err != nil || v != VerdictRedirect || sock == nil {
		t.Fatalf("run: v=%v sock=%v err=%v", v, sock, err)
	}
	if prog.Runs != 1 || prog.Redirects != 1 || prog.Drops != 0 {
		t.Fatalf("counters: %d/%d/%d", prog.Runs, prog.Redirects, prog.Drops)
	}
	// Metrics recorded in-kernel.
	samples := prog.DrainMetrics()
	if len(samples) != 1 {
		t.Fatalf("samples = %d", len(samples))
	}
	s := samples[0]
	if s.Owner != "leaf" || s.ExecTime != 2*sim.Second || s.Kind != "update" {
		t.Fatalf("sample: %+v", s)
	}
	// Drain empties the map.
	if len(prog.DrainMetrics()) != 0 {
		t.Fatal("drain did not clear")
	}
}

func TestSKMSGDropsUnknownDestination(t *testing.T) {
	eng := sim.NewEngine()
	prog := NewSKMSGProgram(eng, NewSockMap("sm"), NewMap[uint64, MetricSample]("m"))
	v, _, err := prog.Run(Message{DstID: "ghost"}, 0)
	if err == nil || v != VerdictDrop {
		t.Fatalf("expected drop: v=%v err=%v", v, err)
	}
	if prog.Drops != 1 {
		t.Fatalf("drops = %d", prog.Drops)
	}
}

// Event-driven invariant: the program never runs unless a send() event
// occurs — Runs stays zero without traffic.
func TestSKMSGZeroIdleCost(t *testing.T) {
	eng := sim.NewEngine()
	prog := NewSKMSGProgram(eng, NewSockMap("sm"), nil)
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if prog.Runs != 0 {
		t.Fatal("sidecar ran without an event")
	}
}

func TestSKMSGNilMetricsMap(t *testing.T) {
	eng := sim.NewEngine()
	sm := NewSockMap("sm")
	sm.Register("x", func(Message) {})
	prog := NewSKMSGProgram(eng, sm, nil)
	if _, _, err := prog.Run(Message{DstID: "x"}, 0); err != nil {
		t.Fatal(err)
	}
	if prog.DrainMetrics() != nil {
		t.Fatal("nil metrics map should drain empty")
	}
}
