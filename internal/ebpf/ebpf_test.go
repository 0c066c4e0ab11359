package ebpf

import (
	"testing"

	"repro/internal/shm"
	"repro/internal/sim"
)

func TestSockMapRegisterLookupRemove(t *testing.T) {
	sm := NewSockMap()
	var got shm.Key
	sm.Register("agg-1", func(m Message) { got = m.ShmKey })
	deliver, ok := sm.Lookup("agg-1")
	if !ok {
		t.Fatal("lookup failed")
	}
	deliver(Message{ShmKey: shm.Key{1}})
	if got != (shm.Key{1}) {
		t.Fatal("deliver did not reach callback")
	}
	sm.Register("agg-2", func(Message) {})
	sm.Remove("agg-1")
	if _, ok := sm.Lookup("agg-1"); ok {
		t.Fatal("remove failed")
	}
	if sm.Len() != 1 {
		t.Fatalf("len = %d", sm.Len())
	}
}

func TestSKMSGRedirects(t *testing.T) {
	sm := NewSockMap()
	prog := NewSKMSGProgram(sm)
	var got Message
	sm.Register("top", func(m Message) { got = m })

	msg := Message{SrcID: "leaf", DstID: "top", ShmKey: shm.Key{2}}
	deliver, ok := prog.Run(msg)
	if !ok {
		t.Fatal("run: no redirect to a registered socket")
	}
	deliver(msg)
	if got != msg {
		t.Fatalf("redirect reached the wrong socket: %+v", got)
	}
	if prog.Runs != 1 || prog.Redirects != 1 || prog.Drops != 0 {
		t.Fatalf("counters: %d/%d/%d", prog.Runs, prog.Redirects, prog.Drops)
	}
}

func TestSKMSGDropsUnknownDestination(t *testing.T) {
	prog := NewSKMSGProgram(NewSockMap())
	if _, ok := prog.Run(Message{DstID: "ghost"}); ok {
		t.Fatal("expected drop for an unregistered destination")
	}
	if prog.Drops != 1 || prog.Redirects != 0 {
		t.Fatalf("drops = %d, redirects = %d", prog.Drops, prog.Redirects)
	}
}

// Event-driven invariant: the program never runs unless a send() event
// occurs — Runs stays zero without traffic.
func TestSKMSGZeroIdleCost(t *testing.T) {
	eng := sim.NewEngine()
	prog := NewSKMSGProgram(NewSockMap())
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if prog.Runs != 0 {
		t.Fatal("sidecar ran without an event")
	}
}
