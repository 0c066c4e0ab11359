package systems

import (
	"fmt"
	"testing"

	"repro/internal/autoscaler"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The per-round TAG (Appendix D) must describe exactly the planned
// hierarchy, validate as a single-rooted tree, and group co-located roles.
func TestRoundTAGDescribesHierarchy(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 5, Model: model.ResNet152, MC: 20, Seed: 3,
		Flags: Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true}})
	jobs := makeJobs(60) // 3 nodes × (10 leaves + middle) + top
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	var tag *topology.TAG
	s.RunRound(1, jobs, func(RoundResult) {})
	tag = s.RoundTAG()
	if tag == nil {
		t.Fatal("no TAG for the round")
	}
	if err := tag.Validate(); err != nil {
		t.Fatalf("TAG invalid: %v", err)
	}
	root, err := tag.Root()
	if err != nil || root != "r1-top" {
		t.Fatalf("root = %q, %v", root, err)
	}
	aggs := 0
	for _, v := range tag.Vertices() {
		if v.Role == topology.RoleAggregator {
			aggs++
		}
	}
	// 30 leaves + 3 middles + top.
	if aggs != 34 {
		t.Fatalf("TAG has %d aggregators, want 34", aggs)
	}
	// Placement affinity: each node's group holds its leaves + middle, and
	// the top joins its host node's group (node-0 here).
	groups := tag.Groups()
	sizes := map[int]int{}
	for _, members := range groups {
		sizes[len(members)]++
	}
	if sizes[11] != 2 || sizes[12] != 1 {
		t.Fatalf("want two groups of 11 and one of 12, groups = %v", groups)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

// ForcePlan lets microbenchmarks pin the paper's exact topology: four
// leaves feeding the top directly (Fig. 7(c)).
func TestForcePlanOverridesPlanner(t *testing.T) {
	eng := sim.NewEngine()
	s := NewLIFL(eng, Config{Nodes: 1, Model: model.ResNet18, MC: 100, Seed: 3,
		Flags: Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true}})
	s.ForcePlan = func(node string, updates int) autoscaler.Plan {
		return autoscaler.Plan{Node: node, Updates: updates, Leaves: 4, Middle: false,
			LeafGoals: []int{2, 2, 2, 2}}
	}
	jobs := makeJobs(8)
	for i := range jobs {
		jobs[i].PreQueued = true
	}
	var res RoundResult
	s.RunRound(0, jobs, func(r RoundResult) { res = r })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// 4 leaves + top, no middle.
	if res.AggsActive != 5 {
		t.Fatalf("active = %d, want 5 (4 leaves + top)", res.AggsActive)
	}
	tagRoot, err := s.RoundTAG().Root()
	if err != nil || tagRoot != "r0-top" {
		t.Fatalf("root: %q %v", tagRoot, err)
	}
	if len(s.RoundTAG().Producers("r0-top")) != 4 {
		t.Fatal("leaves must feed the top directly")
	}
}

// Every plan the planners can produce lays out a valid hierarchy: its TAG
// is a single-rooted tree rooted at the top, with one vertex per slot, one
// channel per non-top slot to the consumer the slot table names, and each
// vertex grouped by its host. The plans are generated: per node, a §5.2
// PlanNode plan at a random demand and fan-in, a forced plan of leaves
// feeding the top directly (Fig. 7(c)), or no plan at all.
func TestPlannedTAGValidProperty(t *testing.T) {
	rng := sim.NewRNG(17)
	cases := 500
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		nodes := 1 + rng.Intn(6)
		plans := make([]autoscaler.Plan, nodes)
		for node := range plans {
			name := fmt.Sprintf("node-%d", node)
			switch rng.Intn(4) {
			case 0: // idle node
			case 1:
				leaves := 1 + rng.Intn(5)
				goals := make([]int, leaves)
				for i := range goals {
					goals[i] = 1 + rng.Intn(3)
				}
				plans[node] = autoscaler.Plan{Node: name, Leaves: leaves, LeafGoals: goals}
			default:
				plans[node] = autoscaler.PlanNode(name, 1+rng.Intn(40), 1+rng.Intn(6))
			}
		}
		round, top := rng.Intn(1000), rng.Intn(nodes)
		tbl := newSlotTable("r", round, plans, top)
		host := func(node int) string { return fmt.Sprintf("node-%d", node) }
		g, err := tbl.buildTAG(host)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("case %d: planner produced an invalid hierarchy: %v", c, err)
		}
		if root, err := g.Root(); err != nil || root != fmt.Sprintf("r%d-top", round) {
			t.Fatalf("case %d: root %q, %v", c, root, err)
		}
		if len(g.Vertices()) != len(tbl.slots) || len(g.Channels()) != len(tbl.slots)-1 {
			t.Fatalf("case %d: %d vertices and %d channels for %d slots",
				c, len(g.Vertices()), len(g.Channels()), len(tbl.slots))
		}
		for i, sl := range tbl.slots {
			v, ok := g.Vertex(sl.name)
			if !ok || v.GroupBy != host(sl.node) || v.Level != sl.role.String() {
				t.Fatalf("case %d: slot %d (%s) vertex %+v", c, i, sl.name, v)
			}
			if i == tbl.top() {
				continue
			}
			if got := g.Consumers(sl.name); len(got) != 1 || got[0] != tbl.dstName(i) {
				t.Fatalf("case %d: %s feeds %v, want [%s]", c, sl.name, got, tbl.dstName(i))
			}
		}
	}
}
