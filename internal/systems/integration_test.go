package systems

import (
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runACT executes one injected round under the given flags and returns the
// result; used by the orchestration-property tests below.
func runACT(t *testing.T, flags Flags, n int, window sim.Duration) RoundResult {
	t.Helper()
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet152, MC: 20, Seed: 3, Flags: flags})
	jobs := makeJobs(n)
	for i := range jobs {
		jobs[i].PreQueued = true
		if n > 1 {
			jobs[i].Delay = window * sim.Duration(i) / sim.Duration(n)
		}
	}
	var res *RoundResult
	s.RunRound(1, jobs, func(r RoundResult) { res = &r })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatalf("round did not complete under %+v", flags)
	}
	return *res
}

// Fig. 8(a) ordering: each added orchestration feature must not hurt, and
// the full stack must beat SL-H clearly at packable load.
func TestOrchestrationFeatureOrdering(t *testing.T) {
	window := 4 * sim.Second
	slh := runACT(t, Flags{}, 20, window)
	p1 := runACT(t, Flags{LocalityPlacement: true}, 20, window)
	p123 := runACT(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Reuse: true}, 20, window)
	full := runACT(t, AllFlags(), 20, window)
	if p1.ACT >= slh.ACT {
		t.Errorf("locality placement did not help: %v vs %v", p1.ACT, slh.ACT)
	}
	if p123.ACT >= p1.ACT {
		t.Errorf("planning+reuse did not help: %v vs %v", p123.ACT, p1.ACT)
	}
	if full.ACT >= p123.ACT {
		t.Errorf("eager did not help: %v vs %v", full.ACT, p123.ACT)
	}
	if ratio := slh.ACT.Seconds() / full.ACT.Seconds(); ratio < 1.5 {
		t.Errorf("full orchestration gain only %.2fx over SL-H", ratio)
	}
}

// Fig. 8(d): locality packing concentrates 20 updates on one node while
// SL-H spreads over all five.
func TestPlacementNodeFootprint(t *testing.T) {
	slh := runACT(t, Flags{}, 20, 0)
	lifl := runACT(t, AllFlags(), 20, 0)
	if slh.NodesUsed != 5 {
		t.Errorf("SL-H used %d nodes, want 5", slh.NodesUsed)
	}
	if lifl.NodesUsed != 1 {
		t.Errorf("LIFL used %d nodes, want 1", lifl.NodesUsed)
	}
}

// Fig. 8(c): reuse reduces instance creations (middles/top are conversions).
func TestReuseReducesCreations(t *testing.T) {
	noReuse := runACT(t, Flags{LocalityPlacement: true, HierarchyPlan: true}, 20, 0)
	reuse := runACT(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Reuse: true}, 20, 0)
	if reuse.AggsCreated >= noReuse.AggsCreated {
		t.Errorf("reuse created %d >= %d", reuse.AggsCreated, noReuse.AggsCreated)
	}
}

// Reuse conversions actually happen and are counted.
func TestReuseConversionsCounted(t *testing.T) {
	eng := sim.NewEngine()
	reg := obs.New(obs.Options{})
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet152, MC: 20, Seed: 3, Flags: AllFlags(), Obs: reg})
	jobs := makeJobs(20)
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	s.RunRound(1, jobs, func(RoundResult) {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("ctrl/conversions", obs.Det).Value() == 0 {
		t.Fatal("no §5.3 role conversions recorded")
	}
}

// Cross-node relaying happens exactly when the hierarchy spans nodes: with
// 60 packed updates there are three nodes, so two intermediates must relay
// to the top's node.
func TestCrossNodeRelaysMatchTopology(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet152, MC: 20, Seed: 3,
		Flags: Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true}})
	jobs := makeJobs(60)
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	s.RunRound(1, jobs, func(RoundResult) {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	relays := uint64(0)
	for _, gw := range s.GWs {
		relays += gw.SentRemote
	}
	if relays != 2 {
		t.Fatalf("cross-node relays = %d, want 2 (3 nodes, top local to one)", relays)
	}
}

// The single-node case must not touch the gateways' remote path at all —
// everything rides shared memory.
func TestFullyPackedRoundIsShmOnly(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet152, MC: 20, Seed: 3, Flags: AllFlags()})
	jobs := makeJobs(20)
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	s.RunRound(1, jobs, func(RoundResult) {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, gw := range s.GWs {
		if gw.SentRemote != 0 {
			t.Fatalf("gateway relayed %d updates in a fully packed round", gw.SentRemote)
		}
	}
}

// Shared-memory hygiene: after a round completes, no model-update objects
// remain referenced (the global was copied out).
func TestNoShmLeakAfterRound(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, MC: 60, Seed: 3, Flags: AllFlags()})
	for r := 1; r <= 2; r++ {
		s.RunRound(r, makeJobs(12), func(RoundResult) {})
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range s.Cluster.Nodes {
		if n.Shm.Len() != 0 {
			t.Fatalf("%s: %d shm objects leaked", n.Name, n.Shm.Len())
		}
	}
}

// SF's cost accrues with wall time even when idle (always-on reservation).
func TestSFReservationAccruesWhileIdle(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSF(eng, Config{Nodes: 5, Model: model.ResNet18, SFLeaves: 6, Seed: 3})
	before := s.CPUTime()
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	after := s.CPUTime()
	if after-before < sim.Hour { // ≥1 effective core reserved
		t.Fatalf("idle hour accrued only %v", after-before)
	}
}

// LIFL's usage-based cost must NOT accrue meaningfully while idle (only
// warm-instance upkeep, which keep-alive bounds).
func TestLIFLUsageIdlesCheaply(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, MC: 60, Seed: 3, Flags: AllFlags()})
	s.RunRound(1, makeJobs(8), func(RoundResult) {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	before := s.CPUTime()
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	grew := s.CPUTime() - before
	// Warm instances are reaped after KeepAliveIdle (6 min), so upkeep can
	// accrue for at most that long.
	if grew > 10*sim.Minute {
		t.Fatalf("idle hour grew usage cost by %v", grew)
	}
}

// SL churns: with a short keep-alive and spaced rounds, the second round
// cold-starts again (Fig. 10(b)).
func TestSLColdStartChurnAcrossRounds(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSL(eng, Config{Nodes: 5, Model: model.ResNet18, Seed: 3, SLKeepAlive: 30 * sim.Second})
	var r1, r2 RoundResult
	s.RunRound(1, makeJobs(12), func(r RoundResult) { r1 = r })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Wait past the keep-alive before the next round.
	eng.After(2*sim.Minute, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	s.RunRound(2, makeJobs(12), func(r RoundResult) { r2 = r })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if r1.AggsCreated == 0 || r2.AggsCreated == 0 {
		t.Fatalf("expected cold churn in both rounds: %d, %d", r1.AggsCreated, r2.AggsCreated)
	}
}

// The three data planes must agree on the FedAvg result bit-for-bit within
// float tolerance: same updates in, same global model out.
func TestSystemsAgreeOnGlobalModel(t *testing.T) {
	results := map[string][]float32{}
	for _, mk := range []func(*sim.Engine) Service{
		func(e *sim.Engine) Service {
			return NewLIFL(e, Config{Nodes: 3, Model: model.ResNet18, MC: 60, Seed: 3, Flags: AllFlags()})
		},
		func(e *sim.Engine) Service {
			return NewSF(e, Config{Nodes: 3, Model: model.ResNet18, SFLeaves: 4, Seed: 3})
		},
		func(e *sim.Engine) Service {
			return NewSL(e, Config{Nodes: 3, Model: model.ResNet18, Seed: 3})
		},
	} {
		eng := sim.NewEngine()
		s := mk(eng)
		s.RunRound(1, makeJobs(9), func(RoundResult) {})
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		results[s.Name()] = s.Global().Data
	}
	ref := results["LIFL"]
	for name, data := range results {
		for i := range ref {
			d := float64(data[i]) - float64(ref[i])
			if d > 1e-3 || d < -1e-3 {
				t.Fatalf("%s diverges from LIFL at %d: %v vs %v", name, i, data[i], ref[i])
			}
		}
	}
}

// Eager vs lazy (flag ④) ACT comparison under spread arrivals — the §5.4
// claim behind Fig. 8's last step.
func TestEagerBeatsLazyOnSpreadArrivals(t *testing.T) {
	lazy := runACT(t, Flags{LocalityPlacement: true, HierarchyPlan: true, Reuse: true}, 20, 8*sim.Second)
	eager := runACT(t, AllFlags(), 20, 8*sim.Second)
	if eager.ACT >= lazy.ACT {
		t.Fatalf("eager %v not faster than lazy %v", eager.ACT, lazy.ACT)
	}
}

// Determinism: identical configuration + seed ⇒ identical round results.
func TestSystemDeterminism(t *testing.T) {
	run := func() RoundResult {
		eng := sim.NewEngine()
		s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, MC: 60, Seed: 11, Flags: AllFlags()})
		var res RoundResult
		s.RunRound(1, makeJobs(16), func(r RoundResult) { res = r })
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic rounds:\n%+v\n%+v", a, b)
	}
}
