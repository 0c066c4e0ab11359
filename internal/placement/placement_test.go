package placement

import (
	"errors"
	"fmt"
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func nodes5(mc float64) []*NodeState {
	out := make([]*NodeState, 5)
	for i := range out {
		out[i] = &NodeState{
			Name:     string(rune('a' + i)),
			MC:       mc,
			ExecTime: 250 * sim.Millisecond,
		}
	}
	return out
}

func sum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

func TestBestFitPacksMinimumNodes(t *testing.T) {
	// The Fig. 8(d) result: 20/60/100 updates onto MC=20 nodes use 1/3/5.
	for _, c := range []struct{ load, want int }{{20, 1}, {60, 3}, {100, 5}} {
		assign, err := BestFit{}.Place(c.load, nodes5(20))
		if err != nil {
			t.Fatal(err)
		}
		if got := NodesUsed(assign); got != c.want {
			t.Fatalf("load %d: used %d nodes, want %d (%v)", c.load, got, c.want, assign)
		}
		if sum(assign) != c.load {
			t.Fatalf("load %d: placed %d", c.load, sum(assign))
		}
	}
}

func TestWorstFitSpreadsLikeLeastConnection(t *testing.T) {
	assign, err := WorstFit{}.Place(20, nodes5(20))
	if err != nil {
		t.Fatal(err)
	}
	if NodesUsed(assign) != 5 {
		t.Fatalf("WorstFit used %d nodes, want all 5", NodesUsed(assign))
	}
	for n, c := range assign {
		if c != 4 {
			t.Fatalf("uneven spread: %s=%d", n, c)
		}
	}
}

func TestFirstFitFillsInOrder(t *testing.T) {
	ns := nodes5(20)
	assign, err := FirstFit{}.Place(25, ns)
	if err != nil {
		t.Fatal(err)
	}
	if assign["a"] != 20 || assign["b"] != 5 {
		t.Fatalf("FirstFit order broken: %v", assign)
	}
}

func TestResidualAccountsForLoadAndAssignments(t *testing.T) {
	n := &NodeState{Name: "x", MC: 20, Arrival: 8, ExecTime: sim.Second}
	if got := n.Residual(); got != 12 {
		t.Fatalf("residual = %v", got)
	}
	n.Assigned = 5
	if got := n.Residual(); got != 7 {
		t.Fatalf("residual with assignments = %v", got)
	}
	if got := n.QueueEstimate(); got != 8 {
		t.Fatalf("queue estimate = %v", got)
	}
}

func TestLoadedNodesAreAvoided(t *testing.T) {
	ns := nodes5(20)
	ns[0].Arrival = 20 // saturated: residual 15... 20·0.25s = 5 used, 15 left
	ns[0].ExecTime = sim.Second
	// Node a has residual 0; BestFit must skip it.
	assign, err := BestFit{}.Place(10, ns)
	if err != nil {
		t.Fatal(err)
	}
	if assign["a"] != 0 {
		t.Fatalf("placed on saturated node: %v", assign)
	}
}

func TestOverflowSpreadsRoundRobin(t *testing.T) {
	assign, err := BestFit{}.Place(120, nodes5(20)) // 20 over capacity
	if err != nil {
		t.Fatal(err)
	}
	if sum(assign) != 120 {
		t.Fatalf("lost updates: %d", sum(assign))
	}
	for n, c := range assign {
		if c < 20 || c > 28 {
			t.Fatalf("overflow unbalanced: %s=%d", n, c)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	if _, err := (BestFit{}).Place(-1, nodes5(20)); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := (BestFit{}).Place(1, nil); err == nil {
		t.Fatal("no nodes accepted")
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	a, _ := BestFit{}.Place(7, nodes5(20))
	b, _ := BestFit{}.Place(7, nodes5(20))
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestSortedAssignments(t *testing.T) {
	got := SortedAssignments(map[string]int{"b": 2, "a": 1})
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("sorted = %v", got)
	}
}

// Property: every policy conserves the demand and respects capacity unless
// the whole cluster is saturated.
func TestPoliciesConserveDemand(t *testing.T) {
	f := func(loadRaw uint8, mcRaw uint8) bool {
		load := int(loadRaw % 120)
		mc := float64(mcRaw%30) + 1
		for _, pol := range []Policy{BestFit{}, WorstFit{}, FirstFit{}} {
			assign, err := pol.Place(load, nodes5(mc))
			if err != nil {
				return false
			}
			if sum(assign) != load {
				return false
			}
			// Under capacity, no node may exceed MC.
			if float64(load) <= 5*mc {
				for _, c := range assign {
					if float64(c) > mc {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BestFit never uses more nodes than WorstFit.
func TestBestFitUsesNoMoreNodesThanWorstFit(t *testing.T) {
	f := func(loadRaw uint8) bool {
		load := int(loadRaw%100) + 1
		bf, err1 := BestFit{}.Place(load, nodes5(20))
		wf, err2 := WorstFit{}.Place(load, nodes5(20))
		if err1 != nil || err2 != nil {
			return false
		}
		return NodesUsed(bf) <= NodesUsed(wf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---- Golden equivalence vs. the seed's per-update greedy scan ----
//
// seedPack re-implements the original packGeneric loop: one pick per update,
// each pick re-scanning all nodes. The indexed batch engine must reproduce
// its assignments exactly, including float-tie and overflow behaviour.

func seedPack(count int, nodes []*NodeState, pick func([]*NodeState) *NodeState) (map[string]int, error) {
	if count < 0 {
		return nil, fmt.Errorf("placement: negative count %d", count)
	}
	if len(nodes) == 0 {
		return nil, errors.New("placement: no nodes")
	}
	out := make(map[string]int)
	overflow := 0
	for i := 0; i < count; i++ {
		n := pick(nodes)
		if n == nil {
			n = nodes[overflow%len(nodes)]
			overflow++
		}
		n.Assigned++
		out[n.Name]++
	}
	return out, nil
}

func seedBestFit(count int, nodes []*NodeState) (map[string]int, error) {
	return seedPack(count, nodes, func(cands []*NodeState) *NodeState {
		var best *NodeState
		for _, n := range cands {
			if n.Residual() < 1 {
				continue
			}
			if best == nil || n.Residual() < best.Residual() ||
				(n.Residual() == best.Residual() && n.Name < best.Name) {
				best = n
			}
		}
		return best
	})
}

func seedWorstFit(count int, nodes []*NodeState) (map[string]int, error) {
	return seedPack(count, nodes, func(cands []*NodeState) *NodeState {
		var best *NodeState
		for _, n := range cands {
			if n.Residual() < 1 {
				continue
			}
			if best == nil || n.Residual() > best.Residual() ||
				(n.Residual() == best.Residual() && n.Name < best.Name) {
				best = n
			}
		}
		return best
	})
}

func seedFirstFit(count int, nodes []*NodeState) (map[string]int, error) {
	return seedPack(count, nodes, func(cands []*NodeState) *NodeState {
		for _, n := range cands {
			if n.Residual() >= 1 {
				return n
			}
		}
		return nil
	})
}

// randomNodes builds clusters that exercise ties (integer and repeated MCs),
// fractional residuals, pre-assigned occupancy, and saturation.
func randomNodes(rng *sim.RNG, n int) []*NodeState {
	out := make([]*NodeState, n)
	for i := range out {
		mc := float64(rng.Intn(30))
		switch rng.Intn(3) {
		case 0: // exact integer capacities → heavy tie territory
		case 1:
			mc += 0.5
		default:
			mc += rng.Float64() * 4
		}
		out[i] = &NodeState{
			Name:     fmt.Sprintf("n%02d", i),
			MC:       mc,
			Arrival:  float64(rng.Intn(4)),
			ExecTime: sim.Duration(rng.Intn(900)) * sim.Millisecond,
			Assigned: rng.Intn(3),
		}
	}
	return out
}

func cloneNodes(nodes []*NodeState) []*NodeState {
	out := make([]*NodeState, len(nodes))
	for i, n := range nodes {
		c := *n
		out[i] = &c
	}
	return out
}

func TestPlaceMatchesSeedScanGolden(t *testing.T) {
	policies := []struct {
		pol  Policy
		seed func(int, []*NodeState) (map[string]int, error)
	}{
		{BestFit{}, seedBestFit},
		{WorstFit{}, seedWorstFit},
		{FirstFit{}, seedFirstFit},
	}
	rng := sim.NewRNG(7)
	for trial := 0; trial < 400; trial++ {
		nodes := randomNodes(rng, 1+rng.Intn(12))
		count := rng.Intn(200)
		for _, p := range policies {
			a, b := cloneNodes(nodes), cloneNodes(nodes)
			want, err1 := p.seed(count, a)
			got, err2 := p.pol.Place(count, b)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s trial %d: error mismatch %v vs %v", p.pol.Name(), trial, err1, err2)
			}
			if !maps.Equal(want, got) {
				t.Fatalf("%s trial %d (count=%d):\nseed %v\n got %v\nnodes %+v",
					p.pol.Name(), trial, count, want, got, nodes)
			}
			// The mutation of NodeState.Assigned must match too.
			for i := range a {
				if a[i].Assigned != b[i].Assigned {
					t.Fatalf("%s trial %d: node %d Assigned %d vs %d",
						p.pol.Name(), trial, i, a[i].Assigned, b[i].Assigned)
				}
			}
		}
	}
}

// TestPlaceIndexedAgreesWithMapForm pins the two result forms together and
// checks Assignment's helpers.
func TestPlaceIndexedAgreesWithMapForm(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		nodes := randomNodes(rng, 1+rng.Intn(8))
		count := rng.Intn(120)
		for _, pol := range []Policy{BestFit{}, WorstFit{}, FirstFit{}} {
			a, b := cloneNodes(nodes), cloneNodes(nodes)
			idx, err := pol.PlaceIndexed(count, a)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pol.Place(count, b)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(idx.ToMap(a), m) {
				t.Fatalf("%s: indexed %v vs map %v", pol.Name(), idx, m)
			}
			if idx.Total() != count {
				t.Fatalf("%s: placed %d of %d", pol.Name(), idx.Total(), count)
			}
			if idx.NodesUsed() != NodesUsed(m) {
				t.Fatalf("%s: NodesUsed %d vs %d", pol.Name(), idx.NodesUsed(), NodesUsed(m))
			}
		}
	}
}

// TestPlaceLargeScaleExact spot-checks the batched BestFit at the §6.1 and
// roadmap scales against arithmetic (not the O(count·n) scan, which would
// dominate test time at 1M): uniform nodes fill to ⌊residual⌋ each.
func TestPlaceLargeScaleExact(t *testing.T) {
	for _, clients := range []int{10_000, 1_000_000} {
		nodes := make([]*NodeState, 100)
		for i := range nodes {
			nodes[i] = &NodeState{
				Name:     fmt.Sprintf("node-%03d", i),
				MC:       float64(clients)/50 + 20,
				ExecTime: 500 * sim.Millisecond,
			}
		}
		a, err := BestFit{}.PlaceIndexed(clients, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if a.Total() != clients {
			t.Fatalf("placed %d of %d", a.Total(), clients)
		}
		per := clients/50 + 20 // integer MC ⇒ each node absorbs exactly MC
		full := clients / per
		for i := 0; i < full; i++ {
			if a[i] != per {
				t.Fatalf("node %d got %d, want %d", i, a[i], per)
			}
		}
		if rem := clients - full*per; rem > 0 && a[full] != rem {
			t.Fatalf("tail node got %d, want %d", a[full], clients-full*per)
		}
	}
}

func TestPlaceIndexedErrors(t *testing.T) {
	for _, pol := range []Policy{BestFit{}, WorstFit{}, FirstFit{}} {
		if _, err := pol.Place(-1, nodes5(20)); err == nil {
			t.Errorf("%s: negative count accepted", pol.Name())
		}
		if _, err := pol.Place(3, nil); err == nil {
			t.Errorf("%s: empty cluster accepted", pol.Name())
		}
		if _, err := pol.PlaceIndexed(-1, nodes5(20)); err == nil {
			t.Errorf("%s: indexed negative count accepted", pol.Name())
		}
	}
}
