package metrics

import (
	"testing"

	"repro/internal/sim"
)

func TestMeterSlidingWindow(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng, sim.Minute)
	for i := 0; i < 30; i++ {
		i := i
		eng.At(sim.Duration(i)*2*sim.Second, func() { m.Mark() })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// At t=58s all 30 events are inside the 60s window: rate = 0.5/s.
	if got := m.Rate(); got < 0.49 || got > 0.51 {
		t.Fatalf("rate = %v", got)
	}
	// An hour later the window is empty.
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if m.Rate() != 0 {
		t.Fatalf("stale window: rate=%v", m.Rate())
	}
}

func TestGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a zero meter window must panic")
		}
	}()
	NewMeter(sim.NewEngine(), 0)
}
