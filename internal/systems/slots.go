// The per-round aggregator slot table shared by the two function-based
// systems (LIFL/SL-H and SL). A round's planner lays out every logical
// aggregator once — rendered name, role, host, goal and consumer — and all
// later bookkeeping (binding, parked updates, dispatch cursors, retirement)
// indexes the table instead of string-keyed maps. Names exist only for the
// edges that are keyed by string: sockmap entries, gateway routes, broker
// topics, aggregator IDs and trace actors.

package systems

import (
	"strconv"

	"repro/internal/aggcore"
	"repro/internal/autoscaler"
	"repro/internal/ebpf"
	"repro/internal/runtime"
	"repro/internal/topology"
)

// aggInst couples a bound aggregator with its host.
type aggInst struct {
	agg  *aggcore.Aggregator
	node int
	sb   *runtime.Sandbox

	// deliver is the instance's sockmap callback, built once with it, and
	// parked marks an instance waiting in a spare pool (LIFL).
	deliver func(ebpf.Message)
	parked  bool
}

// aggSlot is one planned logical aggregator of a round.
type aggSlot struct {
	name string
	role aggcore.Role
	node int // host node (the top's configured host; LIFL may bind it elsewhere)
	goal int
	dst  int // consumer slot; -1 for the top

	started bool             // provisioning (or conversion) begun
	inst    *aggInst         // bound instance; nil until its sandbox is ready
	pending []aggcore.Update // updates parked while unbound (LIFL)
}

// leafRing is one node's leaf slots [first, first+n) and its round-robin
// dispatch cursor.
type leafRing struct{ first, n, rr int }

// slotTable is a round's aggregators in a fixed order: each planned node's
// leaves then its middle, by ascending node index, and the top last.
type slotTable struct {
	slots  []aggSlot
	leaves []leafRing // indexed by node
}

// newSlotTable lays out a round from per-node plans (indexed by node; a
// node without leaves or middle gets no slots) with the top hosted on
// topNode. The top's goal is one input per middle plus one per leaf that
// feeds it directly, and at least one. Names are
// prefix+"<round>-n<node>-leaf<i>", prefix+"<round>-n<node>-middle" and
// prefix+"<round>-top", rendered into one string so that naming a round
// costs a single allocation.
func newSlotTable(prefix string, round int, plans []autoscaler.Plan, topNode int) slotTable {
	n := 1
	for _, p := range plans {
		n += p.Leaves
		if p.Middle {
			n++
		}
	}
	t := slotTable{slots: make([]aggSlot, n), leaves: make([]leafRing, len(plans))}
	var bufArr [512]byte
	var endArr [64]int
	buf, ends := bufArr[:0], endArr[:0]
	top, k, topGoal := n-1, 0, 0
	add := func(s aggSlot) {
		t.slots[k] = s
		ends = append(ends, len(buf))
		k++
	}
	for node, p := range plans {
		dst := top
		if p.Middle {
			dst = k + p.Leaves
			topGoal++
		} else {
			topGoal += p.Leaves
		}
		t.leaves[node] = leafRing{first: k, n: p.Leaves}
		for i := 0; i < p.Leaves; i++ {
			buf = strconv.AppendInt(append(appendHead(buf, prefix, round, node), "-leaf"...), int64(i), 10)
			add(aggSlot{role: aggcore.RoleLeaf, node: node, goal: p.LeafGoals[i], dst: dst})
		}
		if p.Middle {
			buf = append(appendHead(buf, prefix, round, node), "-middle"...)
			add(aggSlot{role: aggcore.RoleMiddle, node: node, goal: p.Leaves, dst: top})
		}
	}
	buf = append(strconv.AppendInt(append(buf, prefix...), int64(round), 10), "-top"...)
	add(aggSlot{role: aggcore.RoleTop, node: topNode, goal: max(topGoal, 1), dst: -1})
	all, start := string(buf), 0
	for i, end := range ends {
		t.slots[i].name = all[start:end]
		start = end
	}
	return t
}

// appendHead appends prefix+"<round>-n<node>".
func appendHead(buf []byte, prefix string, round, node int) []byte {
	buf = strconv.AppendInt(append(buf, prefix...), int64(round), 10)
	return strconv.AppendInt(append(buf, "-n"...), int64(node), 10)
}

// top is the top aggregator's slot.
func (t *slotTable) top() int { return len(t.slots) - 1 }

// dstName is slot i's consumer name ("" for the top).
func (t *slotTable) dstName(i int) string {
	if d := t.slots[i].dst; d >= 0 {
		return t.slots[d].name
	}
	return ""
}

// nextLeaf returns node's next leaf slot in round-robin order, or -1 when
// the node has no leaves planned.
func (t *slotTable) nextLeaf(node int) int {
	r := &t.leaves[node]
	if r.n == 0 {
		return -1
	}
	i := r.first + r.rr%r.n
	r.rr++
	return i
}

// lookup returns the slot named name, or -1. Consumers (middles and the
// top) sit at the back, so the scan runs from there.
func (t *slotTable) lookup(name string) int {
	for i := len(t.slots) - 1; i >= 0; i-- {
		if t.slots[i].name == name {
			return i
		}
	}
	return -1
}

// bound counts slots with a bound instance (RoundResult.AggsActive).
func (t *slotTable) bound() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].inst != nil {
			n++
		}
	}
	return n
}

// buildTAG materializes the table as a Topology Abstraction Graph
// (Appendix D): one vertex per planned aggregator, grouped by its host's
// name (the groupBy placement-affinity label), and channels along the
// aggregation tree. The routing manager derives sockmap and gateway routes
// from this description.
func (t *slotTable) buildTAG(hostName func(node int) string) (*topology.TAG, error) {
	g := topology.New()
	for _, sl := range t.slots {
		v := topology.Vertex{Name: sl.name, Role: topology.RoleAggregator, Level: sl.role.String(), GroupBy: hostName(sl.node)}
		if err := g.AddVertex(v); err != nil {
			return nil, err
		}
	}
	for _, sl := range t.slots[:t.top()] {
		c := topology.Channel{From: sl.name, To: t.slots[sl.dst].name, GroupBy: hostName(sl.node)}
		if err := g.AddChannel(c); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// retireFront pops, in round order, every round at the front of hist that
// closed at or before last, calling evict on each, and stops at the first
// one that has not (an unfinished round stays, and so does everything after
// it). It returns the remaining history, compacted in place so the backing
// array stays the size of the retention window, and the count evicted.
func retireFront[R interface{ closedBy(last int) bool }](hist []R, last int, evict func(R)) ([]R, int) {
	n := 0
	for n < len(hist) && hist[n].closedBy(last) {
		evict(hist[n])
		n++
	}
	if n == 0 {
		return hist, 0
	}
	k := copy(hist, hist[n:])
	clear(hist[k:])
	return hist[:k], n
}
