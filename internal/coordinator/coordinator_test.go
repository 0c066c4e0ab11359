package coordinator

import (
	"testing"

	"repro/internal/aggcore"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestHeartbeatsDetectFailures(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHeartbeats(eng, 15*sim.Second)
	h.Beat("c1")
	h.Beat("c2")
	eng.After(10*sim.Second, func() { h.Beat("c1") }) // c1 stays alive
	eng.After(20*sim.Second, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	failed := h.Failed()
	if len(failed) != 1 || failed[0] != "c2" {
		t.Fatalf("failed = %v", failed)
	}
	h.Forget("c2")
	if len(h.Failed()) != 0 {
		t.Fatal("forget did not clear")
	}
}

func TestReusePickerPrefersIdleCompleted(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	mk := func(goal int) *aggcore.Aggregator {
		a := aggcore.New("a", aggcore.RoleLeaf, c.Nodes[0], fedavg.FedAvg{}, 1, 1)
		a.OnComplete = func(*aggcore.Aggregator, aggcore.Update) {}
		a.Mode = aggcore.Eager
		a.Assign(aggcore.RoleLeaf, goal, "", 1)
		return a
	}
	busy := mk(2) // goal 2, receives only 1 → not idle
	done := mk(1) // completes
	for _, a := range []*aggcore.Aggregator{busy, done} {
		a.Receive(aggcore.Update{Tensor: tensorOf(1), Weight: 1, Size: 100})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	var rp ReusePicker
	if got := rp.PickIdle([]*aggcore.Aggregator{busy, done}); got != done {
		t.Fatalf("picked %v", got)
	}
	if got := rp.PickIdle([]*aggcore.Aggregator{busy}); got != nil {
		t.Fatal("picked a non-idle aggregator")
	}
	if got := rp.PickIdle(nil); got != nil {
		t.Fatal("picked from empty set")
	}
	rp.MarkConversion()
	if rp.Conversions != 1 {
		t.Fatalf("conversions = %d", rp.Conversions)
	}
}

func tensorOf(v float32) *tensor.Tensor {
	return tensor.FromSlice([]float32{v})
}
