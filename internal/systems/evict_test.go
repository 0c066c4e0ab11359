package systems

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/aggcore"
	"repro/internal/model"
	"repro/internal/sim"
)

// The round-closure retirement contract, per system: control-plane records
// for closed rounds (sockmap entries, gateway routes, broker topics, sidecar
// bindings, round state) stay resident inside the
// retention window and are gone after RetireRound — and retirement is pure
// bookkeeping: no events scheduled, no CPU charged, no model bits moved.

// runRoundN drives one numbered round to completion (eng.Run(-1), so
// sequential rounds keep advancing the shared clock).
func runRoundN(t *testing.T, svc Service, eng *sim.Engine, round, n int) {
	t.Helper()
	var got *RoundResult
	svc.RunRound(round, makeJobs(n), func(r RoundResult) { got = &r })
	if err := eng.Run(-1); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	if got == nil {
		t.Fatalf("%s: round %d did not complete", svc.Name(), round)
	}
}

// sockTotal sums logical-name sockmap entries across the cluster.
func sockTotal(s *LIFL) int {
	n := 0
	for _, nd := range s.Cluster.Nodes {
		n += nd.SockMap.Len()
	}
	return n
}

// routeTotal sums installed inter-node gateway routes.
func routeTotal(s *LIFL) int {
	n := 0
	for _, gw := range s.GWs {
		n += gw.Routes()
	}
	return n
}

func TestLIFLRetireRoundEvictsRecords(t *testing.T) {
	for name, flags := range map[string]Flags{
		"lifl": AllFlags(),
		"slh":  {},
	} {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, Flags: flags, Seed: 7})
			for r := 1; r <= 3; r++ {
				runRoundN(t, s, eng, r, 12)
			}
			if len(s.hist) != 3 {
				t.Fatalf("hist holds %d rounds before retirement, want 3", len(s.hist))
			}
			socks0, routes0 := sockTotal(s), routeTotal(s)
			if socks0 == 0 {
				t.Fatal("no sockmap entries after 3 rounds; nothing to evict")
			}

			global := s.Global().Clone()
			pending := eng.Pending()
			cpu := s.CPUTime()

			// Inside the window: rounds 1–2 retired, round 3 retained.
			s.RetireRound(2)
			if len(s.hist) != 1 {
				t.Fatalf("hist holds %d rounds after RetireRound(2), want 1", len(s.hist))
			}
			if s.hist[0].round != 3 {
				t.Fatal("round 3 evicted while inside the retention window")
			}
			if got := sockTotal(s); got >= socks0 {
				t.Fatalf("sockmap entries did not shrink: %d -> %d", socks0, got)
			}
			if routes0 > 0 {
				if got := routeTotal(s); got >= routes0 {
					t.Fatalf("gateway routes did not shrink: %d -> %d", routes0, got)
				}
			}

			// Retirement is bookkeeping: same global bits, no new events,
			// no CPU charged.
			if diff, err := s.Global().MaxAbsDiff(global); err != nil || diff != 0 {
				t.Fatalf("retirement touched the global model: diff %v err %v", diff, err)
			}
			if eng.Pending() != pending {
				t.Fatalf("retirement scheduled events: %d -> %d", pending, eng.Pending())
			}
			if s.CPUTime() != cpu {
				t.Fatalf("retirement charged CPU: %v -> %v", cpu, s.CPUTime())
			}

			// Past the window: everything goes.
			s.RetireRound(3)
			if len(s.hist) != 0 {
				t.Fatalf("hist holds %d rounds after full retirement", len(s.hist))
			}
			if got := sockTotal(s); got != 0 {
				t.Fatalf("%d sockmap entries survived full retirement", got)
			}
			if got := routeTotal(s); got != 0 {
				t.Fatalf("%d gateway routes survived full retirement", got)
			}
		})
	}
}

func TestSLRetireRoundEvictsRecords(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSL(eng, Config{Nodes: 5, Model: model.ResNet18, Seed: 7})
	for r := 1; r <= 3; r++ {
		runRoundN(t, s, eng, r, 12)
	}
	if len(s.hist) != 3 {
		t.Fatalf("hist holds %d rounds before retirement, want 3", len(s.hist))
	}
	topics0 := 0
	for _, b := range s.Brokers {
		topics0 += b.Topics()
	}
	if topics0 == 0 {
		t.Fatal("no broker topic records after 3 rounds; nothing to evict")
	}

	s.RetireRound(2)
	if len(s.hist) != 1 {
		t.Fatalf("hist holds %d rounds after RetireRound(2), want 1", len(s.hist))
	}
	if s.hist[0].round != 3 {
		t.Fatal("round 3 evicted while inside the retention window")
	}
	topics1 := 0
	for _, b := range s.Brokers {
		topics1 += b.Topics()
	}
	if topics1 >= topics0 {
		t.Fatalf("broker topic records did not shrink: %d -> %d", topics0, topics1)
	}

	s.RetireRound(3)
	if len(s.hist) != 0 {
		t.Fatalf("hist holds %d rounds after full retirement", len(s.hist))
	}
	for _, b := range s.Brokers {
		if b.Topics() != 0 {
			t.Fatalf("%d topic records survived full retirement on %s", b.Topics(), b.Node.Name)
		}
	}
	if len(s.aggSidecar) != 0 {
		t.Fatalf("%d sidecar bindings survived full retirement", len(s.aggSidecar))
	}
}

// SF's hierarchy is static — there are no per-round records, and
// RetireRound must be a true no-op.
func TestSFRetireRoundNoop(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSF(eng, Config{Nodes: 5, Model: model.ResNet18, SFLeaves: 6, Seed: 7})
	runOneRound(t, s, eng, 12)
	global := s.Global().Clone()
	pending := eng.Pending()
	s.RetireRound(1)
	if diff, err := s.Global().MaxAbsDiff(global); err != nil || diff != 0 {
		t.Fatalf("SF retirement touched the global model: diff %v err %v", diff, err)
	}
	if eng.Pending() != pending {
		t.Fatalf("SF retirement scheduled events: %d -> %d", pending, eng.Pending())
	}
}

// The async plane keeps no per-version records, which is what makes
// Async.RetireRound a no-op: however many versions fold, the buffer's one
// sockmap entry and its gateway routes stay as installed at startup, and
// every folded update has released its shm object.
func TestAsyncKeepsNoPerVersionRecords(t *testing.T) {
	eng, s := newAsyncRig(t, 2, AsyncParams{BufferK: 1})
	for _, versions := range []int{6, 12} {
		for i := 0; i < 6; i++ {
			dispatchConst(s, i%2, float32(i+1), 1, sim.Duration(i+1)*sim.Second, nil)
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if s.Version() != versions {
			t.Fatalf("version %d, want %d", s.Version(), versions)
		}
		socks, routes := 0, 0
		for _, n := range s.Cluster.Nodes {
			socks += n.SockMap.Len()
			if n.Shm.Len() != 0 {
				t.Fatalf("after %d versions: %d shm objects left on %s", versions, n.Shm.Len(), n.Name)
			}
		}
		for _, gw := range s.GWs {
			routes += gw.Routes()
		}
		if socks != 1 || routes != 1 {
			t.Fatalf("after %d versions: %d sockmap entries and %d routes, want the buffer's 1 and 1", versions, socks, routes)
		}
	}
}

// retireFront pops finished rounds off the front in round order and stops at
// the first round that is still in flight or newer than last, compacting
// what is left to the front of the same backing array.
func TestRetireFrontPopsInRoundOrder(t *testing.T) {
	mk := func(round int, finished bool) *liflRound {
		return &liflRound{round: round, finished: finished}
	}
	hist := []*liflRound{mk(1, true), mk(2, true), mk(3, true), mk(4, false), mk(5, true)}
	backing := hist
	var order []int
	evict := func(rs *liflRound) { order = append(order, rs.round) }

	hist, n := retireFront(hist, 2, evict)
	if n != 2 || !slices.Equal(order, []int{1, 2}) || !slices.Equal(histRounds(hist), []int{3, 4, 5}) {
		t.Fatalf("retire(2): evicted %d in order %v, left %v", n, order, histRounds(hist))
	}
	if &hist[0] != &backing[0] || backing[3] != nil || backing[4] != nil {
		t.Fatal("history not compacted in place with the vacated tail cleared")
	}
	order = nil
	hist, n = retireFront(hist, 9, evict)
	if n != 1 || !slices.Equal(order, []int{3}) || !slices.Equal(histRounds(hist), []int{4, 5}) {
		t.Fatalf("retire(9): evicted %d in order %v, left %v; the unfinished round 4 must stop it",
			n, order, histRounds(hist))
	}
}

// histRounds lists a LIFL history's rounds, front first.
func histRounds(hist []*liflRound) []int {
	out := []int{}
	for _, rs := range hist {
		out = append(out, rs.round)
	}
	return out
}

// backlog runs rounds 1–4 with retirement off, starts round 5 without
// running it, and retires through round 5 in one call: rounds 1–4 leave and
// the unfinished round 5 stays. It then closes round 5 and retires it.
func backlog(t *testing.T, svc Service, eng *sim.Engine, hist func() []int) {
	t.Helper()
	for r := 1; r <= 4; r++ {
		runRoundN(t, svc, eng, r, 12)
	}
	if got := hist(); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("history before retirement = %v, want rounds 1-4 in order", got)
	}
	var res *RoundResult
	svc.RunRound(5, makeJobs(12), func(r RoundResult) { res = &r })
	svc.RetireRound(5)
	if got := hist(); !slices.Equal(got, []int{5}) {
		t.Fatalf("history after retiring a backlog = %v, want only the unfinished round 5", got)
	}
	if err := eng.Run(-1); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("round 5 did not complete after the backlog retired under it")
	}
	svc.RetireRound(5)
	if got := hist(); len(got) != 0 {
		t.Fatalf("history after full retirement = %v", got)
	}
}

func TestLIFLRetireBacklog(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, Flags: AllFlags(), Seed: 7})
	backlog(t, s, eng, func() []int { return histRounds(s.hist) })
	if got := sockTotal(s); got != 0 {
		t.Fatalf("%d sockmap entries survived full retirement", got)
	}
	if got := routeTotal(s); got != 0 {
		t.Fatalf("%d gateway routes survived full retirement", got)
	}
	for _, n := range s.Cluster.Nodes {
		if n.Shm.Len() != 0 {
			t.Fatalf("%s holds %d shm objects after full retirement", n.Name, n.Shm.Len())
		}
	}
	for _, sl := range s.rs.slots {
		if len(sl.pending) != 0 {
			t.Fatalf("%s kept %d pending shm refs after retirement", sl.name, len(sl.pending))
		}
	}
}

func TestSLRetireBacklog(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSL(eng, Config{Nodes: 5, Model: model.ResNet18, Seed: 7})
	backlog(t, s, eng, func() []int {
		out := []int{}
		for _, rs := range s.hist {
			out = append(out, rs.round)
		}
		return out
	})
	for _, b := range s.Brokers {
		if b.Topics() != 0 {
			t.Fatalf("%d topic records survived full retirement on %s", b.Topics(), b.Node.Name)
		}
	}
	if len(s.aggSidecar) != 0 {
		t.Fatalf("%d sidecar bindings survived full retirement", len(s.aggSidecar))
	}
}

// FailAggregator resolves its slot from the rendered name: on a five-node
// round with a middle on every used node, failing a leaf and a middle off
// the first node replays their updates into fresh instances and the
// round's FedAvg result stays exact.
func TestFailAggregatorByNameOnMultiNodeRound(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet18, MC: 20, Seed: 3,
		Flags: Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true}})
	init := s.Global().Clone()
	jobs := makeJobs(60)
	for i := range jobs {
		jobs[i].PreQueued = true
		jobs[i].Delay = sim.Duration(i) * 200 * sim.Millisecond
	}
	var res *RoundResult
	s.RunRound(1, jobs, func(r RoundResult) { res = &r })
	var middles []int
	for _, sl := range s.rs.slots {
		if sl.role == aggcore.RoleMiddle {
			middles = append(middles, sl.node)
		}
	}
	if len(middles) < 2 {
		t.Fatalf("round planned middles on nodes %v; want at least two", middles)
	}
	node := middles[1]
	for _, f := range []struct {
		at   sim.Duration
		name string
	}{
		{5 * sim.Second, fmt.Sprintf("r1-n%d-leaf1", node)},
		{7500 * sim.Millisecond, fmt.Sprintf("r1-n%d-middle", node)},
	} {
		eng.At(f.at, func() {
			replayed, err := s.FailAggregator(f.name)
			t.Logf("%s at %v: %d replayed", f.name, f.at, replayed)
			if err != nil {
				t.Errorf("fail %s: %v", f.name, err)
			} else if replayed == 0 {
				t.Errorf("fail %s: nothing replayed", f.name)
			}
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Updates != 60 {
		t.Fatalf("round after failures: %+v", res)
	}
	checkGlobal(t, s, 60, init)
}
