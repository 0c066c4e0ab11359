package systems

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// Failure injection for the §3 resilience claim: kill aggregators mid-round
// and verify the round still completes with the exact FedAvg result.

func failureRig(t *testing.T, flags Flags) (*sim.Engine, *LIFL) {
	t.Helper()
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, MC: 60, Seed: 17, Flags: flags})
	return eng, s
}

func TestLeafFailureMidRoundRecovers(t *testing.T) {
	eng, s := failureRig(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true})
	init := s.Global().Clone()
	jobs := makeJobs(12)
	for i := range jobs {
		jobs[i].PreQueued = true
		jobs[i].Delay = sim.Duration(i) * sim.Second
	}
	var res *RoundResult
	s.RunRound(1, jobs, func(r RoundResult) { res = &r })
	// Kill one leaf after a few updates have been dispatched and partially
	// aggregated.
	eng.At(4*sim.Second, func() {
		name := "r1-n0-leaf0"
		replayed, err := s.FailAggregator(name)
		if err != nil {
			t.Errorf("fail injection: %v", err)
		}
		if replayed == 0 {
			t.Error("no updates to replay — failure injected too early to be interesting")
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("round did not complete after leaf failure")
	}
	if res.Updates != 12 {
		t.Fatalf("aggregated %d updates", res.Updates)
	}
	// FedAvg result must be exact despite the crash + replay.
	checkGlobal(t, s, 12, init)
	// Recovery cost: one extra instance creation.
	if res.AggsCreated == 0 {
		t.Fatal("replacement instance not created")
	}
}

func TestMiddleFailureMidRoundRecovers(t *testing.T) {
	eng, s := failureRig(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true})
	init := s.Global().Clone()
	jobs := makeJobs(12)
	for i := range jobs {
		jobs[i].PreQueued = true
		jobs[i].Delay = sim.Duration(i) * sim.Second
	}
	var res *RoundResult
	s.RunRound(1, jobs, func(r RoundResult) { res = &r })
	// Kill the middle on node 0 once some leaf outputs have reached it.
	eng.At(8*sim.Second, func() {
		if _, err := s.FailAggregator("r1-n0-middle"); err != nil {
			t.Errorf("fail injection: %v", err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("round did not complete after middle failure")
	}
	checkGlobal(t, s, 12, init)
}

func TestFailUnknownAggregatorErrors(t *testing.T) {
	eng, s := failureRig(t, AllFlags())
	if _, err := s.FailAggregator("ghost"); err == nil {
		t.Fatal("no round in flight must error")
	}
	jobs := makeJobs(4)
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	s.RunRound(1, jobs, func(RoundResult) {})
	if _, err := s.FailAggregator("ghost"); err == nil {
		t.Fatal("unknown name must error")
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// No shm leaks even through a crash/replay cycle.
func TestFailureDoesNotLeakShm(t *testing.T) {
	eng, s := failureRig(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true})
	jobs := makeJobs(12)
	for i := range jobs {
		jobs[i].PreQueued = true
		jobs[i].Delay = sim.Duration(i) * sim.Second
	}
	s.RunRound(1, jobs, func(RoundResult) {})
	eng.At(5*sim.Second, func() {
		if _, err := s.FailAggregator("r1-n0-leaf1"); err != nil {
			t.Errorf("fail injection: %v", err)
		}
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Cluster.Nodes {
		if n.Shm.Len() != 0 {
			t.Fatalf("%s leaked %d objects", n.Name, n.Shm.Len())
		}
	}
}
