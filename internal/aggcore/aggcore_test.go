package aggcore

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/sim"
	"repro/internal/tensor"
)

type captureTransport struct {
	out   *Update
	at    sim.Duration
	eng   *sim.Engine
	count int
}

func (c *captureTransport) SendResult(_ *Aggregator, out Update, _ string) {
	o := out
	c.out = &o
	c.at = c.eng.Now()
	c.count++
}

func rig() (*sim.Engine, *cluster.Node) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	return eng, c.Nodes[0]
}

func mkUpdate(v float32, w float64) Update {
	u := tensor.FromSlice([]float32{v, v * 2})
	return Update{Tensor: u, Weight: w, Size: 1 << 20, Round: 1}
}

func TestEagerAggregatesToGoalAndSends(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Assign(RoleLeaf, 3, "top", 1)
	a.Receive(mkUpdate(1, 1))
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(6, 2))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 || ct.out == nil {
		t.Fatalf("sends = %d", ct.count)
	}
	// (1 + 2 + 6·2)/4 = 3.75
	if got := ct.out.Tensor.Data[0]; got < 3.74 || got > 3.76 {
		t.Fatalf("aggregate = %v", got)
	}
	if ct.out.Weight != 4 {
		t.Fatalf("total weight = %v", ct.out.Weight)
	}
	if !a.Idle() {
		t.Fatal("aggregator should be idle after send")
	}
	if a.Done() != 3 || a.TotalAggregated != 3 || a.RoundsCompleted != 1 {
		t.Fatalf("counters: %d/%d/%d", a.Done(), a.TotalAggregated, a.RoundsCompleted)
	}
}

// Fig. 1: eager and lazy produce the same result, but lazy starts
// aggregating only when the whole goal has arrived, so it finishes later
// when arrivals are spread out.
func TestEagerFinishesBeforeLazyOnSpreadArrivals(t *testing.T) {
	run := func(mode Mode) (sim.Duration, *tensor.Tensor) {
		eng, n := rig()
		a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
		ct := &captureTransport{eng: eng}
		a.Transport = ct
		a.Mode = mode
		a.Assign(RoleLeaf, 4, "top", 1)
		for i := 0; i < 4; i++ {
			i := i
			eng.At(sim.Duration(i)*10*sim.Second, func() {
				a.Receive(Update{Tensor: tensor.FromSlice([]float32{float32(i), 0}), Weight: 1, Size: 500 << 20, Round: 1})
			})
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if ct.out == nil {
			t.Fatal("no send")
		}
		return ct.at, ct.out.Tensor
	}
	eagerAt, eagerRes := run(Eager)
	lazyAt, lazyRes := run(Lazy)
	if d, _ := eagerRes.MaxAbsDiff(lazyRes); d > 1e-5 {
		t.Fatalf("eager and lazy disagree by %v", d)
	}
	if eagerAt >= lazyAt {
		t.Fatalf("eager (%v) should finish before lazy (%v) on spread arrivals", eagerAt, lazyAt)
	}
	// Eager overlaps Recv with Agg: only the last update's work remains
	// after the final arrival (§5.4).
	lastArrival := 30 * sim.Second
	p := costmodel.Default()
	oneAgg := p.AggregateOne(500 << 20)
	if eagerAt > lastArrival+oneAgg+sim.Second {
		t.Fatalf("eager tail too long: %v", eagerAt-lastArrival)
	}
	if lazyAt < lastArrival+4*oneAgg {
		t.Fatalf("lazy must pay the whole batch after the last arrival, finished %v", lazyAt)
	}
}

func TestLazyDoesNotStartEarly(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	a.Transport = &captureTransport{eng: eng}
	a.Mode = Lazy
	a.Assign(RoleLeaf, 2, "top", 1)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if a.Done() != 0 || a.Pending() != 1 {
		t.Fatalf("lazy aggregated early: done=%d pending=%d", a.Done(), a.Pending())
	}
}

func TestShmReferencesReleasedAfterAggregation(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	a.Transport = &captureTransport{eng: eng}
	a.Mode = Eager
	a.Assign(RoleLeaf, 2, "top", 1)
	for i := 0; i < 2; i++ {
		u := tensor.FromSlice([]float32{1, 2})
		key, err := n.Shm.Put(u, 1, "c", 1)
		if err != nil {
			t.Fatal(err)
		}
		a.Receive(Update{Tensor: u, Weight: 1, Size: u.VirtualBytes(), Key: key, Store: n.Shm})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n.Shm.Len() != 0 {
		t.Fatalf("%d shm objects leaked", n.Shm.Len())
	}
}

func TestRoleConversion(t *testing.T) {
	eng, n := rig()
	a := New("x", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Assign(RoleLeaf, 1, "mid", 1)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !a.Idle() {
		t.Fatal("not idle after first task")
	}
	// Convert the idle leaf into a middle (§5.3) and run a second task.
	converted := false
	start := eng.Now()
	a.ConvertRole(RoleMiddle, 2, "top", 2, func() { converted = true })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !converted || a.Role != RoleMiddle || a.Goal != 2 || a.Round != 2 {
		t.Fatalf("conversion state: %v role=%v goal=%d", converted, a.Role, a.Goal)
	}
	if eng.Now()-start != n.P.RoleConvertDelay {
		t.Fatalf("conversion took %v", eng.Now()-start)
	}
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(4, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 2 {
		t.Fatalf("sends = %d", ct.count)
	}
	if got := ct.out.Tensor.Data[0]; got != 3 {
		t.Fatalf("converted-state aggregate = %v (stale state?)", got)
	}
}

func TestOnCompleteBypassesTransport(t *testing.T) {
	eng, n := rig()
	a := New("top", RoleTop, n, fedavg.FedAvg{}, 2, 2)
	var got *Update
	a.OnComplete = func(_ *Aggregator, out Update) { got = &out }
	a.Mode = Eager
	a.Assign(RoleTop, 1, "", 1)
	a.Receive(mkUpdate(5, 2))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Weight != 2 {
		t.Fatalf("OnComplete: %+v", got)
	}
}

func TestAssignNonPositiveGoalPanics(t *testing.T) {
	_, n := rig()
	a := New("x", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Assign(RoleLeaf, 0, "", 1)
}

func TestRoleStrings(t *testing.T) {
	if RoleLeaf.String() != "leaf" || RoleMiddle.String() != "middle" || RoleTop.String() != "top" {
		t.Fatal("role strings")
	}
}

// Property: for any weights and arrival order, the aggregator's output is
// the exact weighted mean of what it received.
func TestAggregationCorrectnessProperty(t *testing.T) {
	f := func(vals []int8, wsRaw []uint8) bool {
		n := len(vals)
		if n == 0 || n > 12 || len(wsRaw) < n {
			return true // skip degenerate shapes
		}
		eng, node := rig()
		a := New("leaf", RoleLeaf, node, fedavg.FedAvg{}, 1, 1)
		ct := &captureTransport{eng: eng}
		a.Transport = ct
		a.Mode = Eager
		a.Assign(RoleLeaf, n, "top", 1)
		var num, den float64
		for i := 0; i < n; i++ {
			v := float64(vals[i])
			w := float64(wsRaw[i]%13) + 1
			num += v * w
			den += w
			a.Receive(Update{Tensor: tensor.FromSlice([]float32{float32(v)}), Weight: w, Size: 1000})
		}
		if err := eng.RunUntilIdle(); err != nil {
			return false
		}
		if ct.out == nil {
			return false
		}
		got := float64(ct.out.Tensor.Data[0])
		want := num / den
		return got > want-1e-3 && got < want+1e-3 && ct.out.Weight == den
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Reweigh recomputes weights at the Agg-step dequeue (fold time). The
// buffered-async system hangs staleness decay here: the folded aggregate
// must use the reweighed values while the stored updates keep their
// original weights for failover replay.
func TestReweighAppliesAtFoldTime(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, 2, 2)
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	// Halve every weight: the mean is unchanged, the total weight halves.
	a.Reweigh = func(u Update) float64 { return u.Weight / 2 }
	a.Assign(RoleTop, 2, "up", 1)
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(4, 3))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatalf("sends = %d", ct.count)
	}
	// (2·0.5 + 4·1.5)/2 = 3.5, total weight 0.5 + 1.5 = 2.
	if got := ct.out.Tensor.Data[0]; got < 3.49 || got > 3.51 {
		t.Fatalf("aggregate = %v", got)
	}
	if ct.out.Weight != 2 {
		t.Fatalf("total weight = %v, want reweighed 2", ct.out.Weight)
	}
}

// A reweigh verdict of <= 0 discards the update without advancing the goal:
// the buffer only fills with live contributions.
func TestReweighDiscardsWithoutAdvancingGoal(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, 2, 2)
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Reweigh = func(u Update) float64 {
		if u.Round == 0 { // "too stale"
			return 0
		}
		return u.Weight
	}
	a.Assign(RoleTop, 2, "up", 1)
	stale := mkUpdate(100, 5)
	stale.Round = 0
	a.Receive(stale)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 0 {
		t.Fatal("goal met with a discarded update")
	}
	if a.Discarded != 1 || a.Done() != 1 {
		t.Fatalf("discarded = %d, done = %d", a.Discarded, a.Done())
	}
	a.Receive(mkUpdate(3, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatal("goal did not complete after live updates")
	}
	// The discarded value-100 update must not have leaked in: (1 + 3)/2 = 2.
	if got := ct.out.Tensor.Data[0]; got != 2 {
		t.Fatalf("aggregate = %v, want 2", got)
	}
}

// A discarded shm-resident update must release its reference; a folded one
// still releases at Send — either way the store drains to empty.
func TestReweighDiscardReleasesShmReference(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, 2, 2)
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Reweigh = func(u Update) float64 {
		if u.Producer == "stale" {
			return 0
		}
		return u.Weight
	}
	a.Assign(RoleTop, 2, "up", 1)
	recv := func(producer string, v float32) {
		u := tensor.FromSlice([]float32{v, v})
		key, err := n.Shm.Put(u, 1, producer, 1)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := n.Shm.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		a.Receive(Update{Tensor: obj.Tensor, Weight: obj.Weight, Size: obj.Size,
			Round: 1, Producer: producer, Key: key, Store: n.Shm})
	}
	recv("stale", 9)
	recv("live", 1)
	recv("live", 3)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatalf("sends = %d", ct.count)
	}
	if a.Discarded != 1 {
		t.Fatalf("discarded = %d", a.Discarded)
	}
	if n.Shm.Len() != 0 {
		t.Fatalf("shm holds %d objects after send; discarded reference leaked", n.Shm.Len())
	}
}

// A recycled instance is indistinguishable from a fresh one: the same
// round played through each, on one engine, folds to the same bits and
// sends at the same virtual instant. The output buffer Transport carried
// last round is rewritten in place; one handed to OnComplete never is.
func TestRecycleMatchesFreshInstance(t *testing.T) {
	eng, n := rig()
	old := New("r1-leaf0", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	first := &captureTransport{eng: eng}
	old.Transport = first
	old.Assign(RoleLeaf, 2, "r1-top", 1)
	old.Receive(mkUpdate(7, 3))
	old.Receive(mkUpdate(-1, 2))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	prev := first.out.Tensor

	play := func(a *Aggregator) *captureTransport {
		ct := &captureTransport{eng: eng}
		a.Transport = ct
		a.Assign(RoleMiddle, 3, "r2-top", 2)
		a.Receive(mkUpdate(1, 1))
		eng.After(sim.Second, func() { a.Receive(mkUpdate(2, 1)) })
		eng.After(2*sim.Second, func() { a.Receive(mkUpdate(6, 2)) })
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return ct
	}
	start := eng.Now()
	want := play(New("r2-middle", RoleMiddle, n, fedavg.FedAvg{}, 2, 2))
	eng.At(eng.Now()+10*sim.Second, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	offset := eng.Now() - start
	old.Recycle("r2-middle", RoleMiddle)
	if old.ID != "r2-middle" || old.Role != RoleMiddle || old.Done() != 0 || old.TotalAggregated != 0 {
		t.Fatalf("recycled identity/counters: %s %v %d %d", old.ID, old.Role, old.Done(), old.TotalAggregated)
	}
	got := play(old)
	if got.count != 1 || got.at-offset != want.at {
		t.Fatalf("recycled send at %v (count %d), fresh at %v", got.at-offset, got.count, want.at)
	}
	if got.out.Weight != want.out.Weight || got.out.Size != want.out.Size || got.out.Round != want.out.Round {
		t.Fatalf("recycled output %+v, fresh %+v", *got.out, *want.out)
	}
	for i := range want.out.Tensor.Data {
		if got.out.Tensor.Data[i] != want.out.Tensor.Data[i] {
			t.Fatalf("element %d: %v, fresh %v", i, got.out.Tensor.Data[i], want.out.Tensor.Data[i])
		}
	}
	if got.out.Tensor != prev {
		t.Fatal("the output buffer Transport carried was not reused")
	}

	// Through OnComplete the output leaves for good.
	var installed *tensor.Tensor
	old.Recycle("r3-top", RoleTop)
	old.OnComplete = func(_ *Aggregator, u Update) { installed = u.Tensor }
	old.Assign(RoleTop, 1, "", 3)
	old.Receive(mkUpdate(4, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if installed != prev {
		t.Fatal("the recycled buffer should carry the top's output")
	}
	old.Recycle("r4-leaf0", RoleLeaf)
	old.Transport = &captureTransport{eng: eng}
	old.Assign(RoleLeaf, 1, "r4-top", 4)
	old.Receive(mkUpdate(5, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if installed.Data[0] != 4 {
		t.Fatalf("the installed output was overwritten: %v", installed.Data)
	}
}

// Recycling an instance with work in flight is a bug, not a warm start.
func TestRecycleBusyPanics(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	a.Transport = &captureTransport{eng: eng}
	a.Assign(RoleLeaf, 2, "top", 1)
	a.Receive(mkUpdate(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle accepted an instance mid-fold")
		}
	}()
	a.Recycle("other", RoleLeaf)
}

// The Agg step schedules its completion through the bound onFolded: a fold
// allocates nothing once the queue and consumed arrays are warm.
func TestFoldAllocs(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, 2, 2)
	a.Transport = &captureTransport{eng: eng}
	a.Assign(RoleLeaf, 1<<30, "top", 1)
	u := mkUpdate(1, 1)
	for i := 0; i < 8; i++ {
		a.Receive(u)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		a.Receive(u)
		eng.Step()
	})
	if avg > 1 {
		t.Fatalf("a fold allocates %.2f/op, want <= 1 (amortized growth of consumed)", avg)
	}
}
