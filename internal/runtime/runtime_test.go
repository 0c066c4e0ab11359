package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/sim"
)

func rig() (*sim.Engine, *cluster.Node, *Manager) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	return eng, c.Nodes[0], NewManager(c.Nodes[0])
}

func TestColdStartDelayAndCPU(t *testing.T) {
	eng, n, m := rig()
	var readyAt sim.Duration
	m.Start("leaf", func(sb *Sandbox) { readyAt = eng.Now() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if readyAt != n.P.ColdStartDelay {
		t.Fatalf("ready at %v, want %v", readyAt, n.P.ColdStartDelay)
	}
	if m.ColdStarts != 1 || m.WarmStarts != 0 || m.Created != 1 {
		t.Fatalf("counters: %d/%d/%d", m.ColdStarts, m.WarmStarts, m.Created)
	}
	if n.CPUTime("runtime") == 0 {
		t.Fatal("cold start consumed no CPU")
	}
	if n.MemUsed() < n.P.AggregatorMemBytes {
		t.Fatal("sandbox memory not charged")
	}
}

func TestWarmStartReusesIdleSandboxOfSameKind(t *testing.T) {
	eng, n, m := rig()
	var first *Sandbox
	m.Start("leaf", func(sb *Sandbox) { first = sb })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	_ = first.SetIdle()
	var second *Sandbox
	var readyAt sim.Duration
	start := eng.Now()
	m.Start("leaf", func(sb *Sandbox) { second = sb; readyAt = eng.Now() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("warm pool did not hand back the idle instance")
	}
	if readyAt-start != n.P.WarmStartDelay {
		t.Fatalf("warm start took %v", readyAt-start)
	}
	if m.WarmStarts != 1 || m.Created != 1 {
		t.Fatalf("counters: warm=%d created=%d", m.WarmStarts, m.Created)
	}
}

func TestWarmPoolIsKindKeyed(t *testing.T) {
	eng, _, m := rig()
	var leaf *Sandbox
	m.Start("leaf", func(sb *Sandbox) { leaf = sb })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	_ = leaf.SetIdle()
	// A "middle" deployment must NOT get the idle leaf pod.
	var mid *Sandbox
	m.Start("middle", func(sb *Sandbox) { mid = sb })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if mid == leaf {
		t.Fatal("cross-kind warm reuse must not happen (that's LIFL's §5.3 feature, not the platform's)")
	}
	if m.Created != 2 {
		t.Fatalf("created = %d", m.Created)
	}
}

func TestKeepAliveReaping(t *testing.T) {
	eng, n, m := rig()
	var sb *Sandbox
	reclaimed := false
	m.Start("leaf", func(s *Sandbox) { sb = s })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	sb.OnReclaim = func(*Sandbox) { reclaimed = true }
	_ = sb.SetIdle()
	eng.After(n.P.KeepAliveIdle+sim.Second, func() { m.ReapIdle() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sb.State() != StateTerminated || !reclaimed || m.Reclaimed != 1 {
		t.Fatalf("reap failed: state=%v reclaimed=%v", sb.State(), reclaimed)
	}
	if m.LiveCount() != 0 {
		t.Fatalf("live = %d", m.LiveCount())
	}
}

func TestPinnedSandboxSurvivesReaping(t *testing.T) {
	eng, n, m := rig()
	var sb *Sandbox
	m.Start("leaf", func(s *Sandbox) { sb = s })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	_ = sb.SetIdle()
	sb.Pinned = true
	eng.After(n.P.KeepAliveIdle*3, func() { m.ReapIdle() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sb.State() == StateTerminated {
		t.Fatal("pinned sandbox reaped while owing round output")
	}
	// Unpinned, it goes on the next sweep.
	sb.Pinned = false
	m.ReapIdle()
	if sb.State() != StateTerminated {
		t.Fatal("unpinned expired sandbox should be reaped")
	}
}

func TestDisableKeepAlive(t *testing.T) {
	eng, n, m := rig()
	m.DisableKeepAlive = true
	var sb *Sandbox
	m.Start("leaf", func(s *Sandbox) { sb = s })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	_ = sb.SetIdle()
	eng.After(n.P.KeepAliveIdle*10, func() { m.ReapIdle() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sb.State() == StateTerminated {
		t.Fatal("always-on manager reaped an instance")
	}
}

func TestBusyIdleTransitions(t *testing.T) {
	eng, _, m := rig()
	var sb *Sandbox
	m.Start("leaf", func(s *Sandbox) { sb = s })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if err := sb.SetBusy(); err != nil || sb.State() != StateBusy {
		t.Fatalf("busy: %v %v", sb.State(), err)
	}
	if err := sb.SetIdle(); err != nil || sb.State() != StateIdle {
		t.Fatalf("idle: %v %v", sb.State(), err)
	}
	m.Terminate(sb)
	if err := sb.SetBusy(); err == nil {
		t.Fatal("busy on terminated sandbox must error")
	}
}

func TestUpkeepSettlement(t *testing.T) {
	eng, n, m := rig()
	m.Start("leaf", nil)
	// nil-ready Start: readiness callback optional? Guard: use a no-op.
	_ = eng
	eng.After(100*sim.Second, func() { m.SettleUpkeep() })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	got := n.CPUTime("runtime-upkeep")
	want := sim.Duration(float64(100*sim.Second-0) * n.P.RuntimeUpkeepCPUFrac)
	if got < want-sim.Second || got > want {
		t.Fatalf("upkeep = %v, want ≈%v", got, want)
	}
}

func TestTerminateAll(t *testing.T) {
	eng, n, m := rig()
	for i := 0; i < 3; i++ {
		m.Start("leaf", func(*Sandbox) {})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	m.TerminateAll()
	if m.LiveCount() != 0 {
		t.Fatalf("live = %d", m.LiveCount())
	}
	if n.MemUsed() != 0 {
		t.Fatalf("memory leaked: %d", n.MemUsed())
	}
}

func TestIdleCount(t *testing.T) {
	eng, _, m := rig()
	var sbs []*Sandbox
	for i := 0; i < 3; i++ {
		m.Start("leaf", func(sb *Sandbox) { sbs = append(sbs, sb) })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if m.IdleCount() != 3 {
		t.Fatalf("idle = %d", m.IdleCount())
	}
	_ = sbs[0].SetBusy()
	if m.IdleCount() != 2 {
		t.Fatalf("idle = %d", m.IdleCount())
	}
}

// refSetIdle is SetIdle as it was before sandboxes carried a cancellable
// expiry timer: every idle transition queues its own uncancellable check,
// which fires as a no-op once the sandbox has left that idle spell. The
// differential tests below hold the timer to this reference.
func refSetIdle(s *Sandbox) error {
	if s.state == StateTerminated {
		return ErrTerminated
	}
	s.state = StateIdle
	s.LastIdle = s.Node.Eng.Now()
	if s.mgr != nil && !s.mgr.DisableKeepAlive {
		idleMark := s.LastIdle
		s.Node.Eng.After(s.Node.P.KeepAliveIdle+sim.Millisecond, func() {
			if s.state == StateIdle && s.LastIdle == idleMark {
				s.mgr.ReapIdle()
			}
		})
	}
	return nil
}

// reapRig is one engine, node and manager whose reclaims are logged as
// "ID@time", in the order the reaper reports them.
type reapRig struct {
	eng     *sim.Engine
	m       *Manager
	setIdle func(*Sandbox) error
	created []*Sandbox
	reaps   []string
}

// newReapRig builds a rig on short, odd-millisecond delays: operations run
// on even milliseconds, so expiry checks (LastIdle + KeepAliveIdle + 1 ms)
// land on operation instants while cold-start readiness never does.
func newReapRig(setIdle func(*Sandbox) error) *reapRig {
	p := costmodel.Default()
	p.KeepAliveIdle = 41 * sim.Millisecond
	p.ColdStartDelay = 7 * sim.Millisecond
	p.WarmStartDelay = 3 * sim.Millisecond
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), p, 1)
	return &reapRig{eng: eng, m: NewManager(c.Nodes[0]), setIdle: setIdle}
}

// start calls Start. A cold-started sandbox goes idle through setIdle
// when ready; a warm one is left as the warm start leaves it (Idle, the old
// LastIdle kept) or, with busy, set busy.
func (r *reapRig) start(busy bool) {
	warm0 := r.m.WarmStarts
	cold := false
	sb := r.m.Start("leaf", func(sb *Sandbox) {
		if cold {
			_ = r.setIdle(sb)
		} else if busy {
			_ = sb.SetBusy()
		}
	})
	if cold = r.m.WarmStarts == warm0; cold {
		r.track(sb)
	}
}

// track logs sb's reclaims and makes it addressable by the schedule.
func (r *reapRig) track(sb *Sandbox) {
	sb.OnReclaim = func(dead *Sandbox) {
		r.reaps = append(r.reaps, fmt.Sprintf("%s@%v", dead.ID, r.eng.Now()))
	}
	r.created = append(r.created, sb)
}

// ready returns a cold-started sandbox that is idle with no check armed.
func (r *reapRig) ready(t *testing.T) *Sandbox {
	sb := r.m.Start("leaf", nil)
	r.track(sb)
	if err := r.eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return sb
}

// op runs one scheduled operation, drawn from rng when it runs. Only
// operations on the 2 ms grid call SetIdle or Start, one sandbox per
// instant, so no two sandboxes share a LastIdle and the warm pool's pick is
// unambiguous. Any operation may queue a side operation — busy, a Pinned
// toggle, a reaper sweep or a termination — at a later instant; its
// sequence number is drawn when it is queued, so at a shared instant it
// runs after the checks armed before it and before those armed after.
func (r *reapRig) op(rng *sim.RNG, side bool) {
	kind := rng.Intn(10)
	if side {
		kind = 2 + rng.Intn(4)
	}
	if kind == 4 && rng.Intn(4) != 0 {
		kind = 2 // keep terminations rare
	}
	pick, busy := rng.Intn(64), rng.Intn(2) == 0
	queue := func(d sim.Duration) { r.eng.After(d, func() { r.op(rng, true) }) }
	if rng.Intn(2) == 0 {
		queue(sim.Duration(2*(1+rng.Intn(40))) * sim.Millisecond)
	}
	if kind == 0 || len(r.created) == 0 {
		if !side {
			r.start(busy)
		}
		return
	}
	sb := r.created[pick%len(r.created)]
	switch kind {
	case 1, 9:
		_ = r.setIdle(sb)
	case 2:
		_ = sb.SetBusy()
	case 3:
		sb.Pinned = !sb.Pinned
	case 4:
		r.m.Terminate(sb)
	case 5:
		r.m.ReapIdle()
	case 6: // idle, busy and idle again, all at one instant
		_ = r.setIdle(sb)
		_ = sb.SetBusy()
		_ = r.setIdle(sb)
	case 7: // idle twice at one instant
		_ = r.setIdle(sb)
		_ = r.setIdle(sb)
	case 8: // idle twice at one instant, with a side operation queued
		// between the two checks
		_ = r.setIdle(sb)
		queue(r.m.Node.P.KeepAliveIdle + sim.Millisecond)
		_ = sb.SetBusy()
		_ = r.setIdle(sb)
	}
}

// TestExpiryTimerMatchesUncancellableChecks drives sandboxes through a
// random schedule of SetIdle, SetBusy, warm Start, Pinned toggles,
// Terminate and reaper sweeps — same-instant re-idles and warm starts that
// return to idle without SetIdle included — and requires the reaper to
// reclaim the same sandboxes at the same virtual times as the reference
// that queues one uncancellable check per idle transition.
func TestExpiryTimerMatchesUncancellableChecks(t *testing.T) {
	seeds, steps := 40, 600
	if testing.Short() {
		seeds = 10
	}
	total := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		run := func(setIdle func(*Sandbox) error) (*reapRig, int) {
			r := newReapRig(setIdle)
			rng := sim.NewRNG(seed)
			peak := 0
			step := func() {
				r.op(rng, false)
				peak = max(peak, r.eng.Pending())
			}
			for i := 0; i < steps; i++ {
				r.eng.At(sim.Duration(2*i)*sim.Millisecond, step)
			}
			if err := r.eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			return r, peak
		}
		ref, refPeak := run(refSetIdle)
		got, gotPeak := run((*Sandbox).SetIdle)
		sort.Strings(ref.reaps)
		sort.Strings(got.reaps)
		if !reflect.DeepEqual(ref.reaps, got.reaps) {
			t.Fatalf("seed %d: reaps differ\nreference: %v\ntimer:     %v", seed, ref.reaps, got.reaps)
		}
		if len(ref.created) != len(got.created) || ref.m.WarmStarts != got.m.WarmStarts {
			t.Fatalf("seed %d: runs diverged: sandboxes %d/%d, warm starts %d/%d",
				seed, len(ref.created), len(got.created), ref.m.WarmStarts, got.m.WarmStarts)
		}
		if gotPeak > refPeak {
			t.Fatalf("seed %d: the timer queued more events (%d) than the reference (%d)", seed, gotPeak, refPeak)
		}
		total += len(got.reaps)
	}
	if total == 0 {
		t.Fatal("the schedules reaped nothing")
	}
}

// A sandbox idle twice at one instant keeps both checks, and each can be
// the one that reaps. In the first case the earlier check finds the
// sandbox pinned, an event queued between the two checks unpins it, and
// the later check reaps; in the second the earlier check reaps before an
// event queued between them would set the sandbox busy.
func TestExpirySameInstantReIdle(t *testing.T) {
	for _, between := range []struct {
		name   string
		pinned bool
		fn     func(*Sandbox)
	}{
		{"unpin", true, func(sb *Sandbox) { sb.Pinned = false }},
		{"busy", false, func(sb *Sandbox) { _ = sb.SetBusy() }},
	} {
		for _, impl := range []struct {
			name    string
			setIdle func(*Sandbox) error
		}{{"reference", refSetIdle}, {"timer", (*Sandbox).SetIdle}} {
			r := newReapRig(impl.setIdle)
			sb := r.ready(t)
			sb.Pinned = between.pinned
			_ = r.setIdle(sb)
			at := r.eng.Now() + r.m.Node.P.KeepAliveIdle + sim.Millisecond
			r.eng.At(at, func() { between.fn(sb) })
			_ = sb.SetBusy()
			_ = r.setIdle(sb)
			if err := r.eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%s@%v", sb.ID, at); len(r.reaps) != 1 || r.reaps[0] != want {
				t.Fatalf("%s/%s: reaps = %v, want [%s]", between.name, impl.name, r.reaps, want)
			}
		}
	}
}

// A warm start returns the sandbox to Idle without SetIdle, so the check
// armed before it still fires on the old LastIdle and reaps it.
func TestExpiryAfterWarmStartWithoutSetIdle(t *testing.T) {
	for _, impl := range []struct {
		name    string
		setIdle func(*Sandbox) error
	}{{"reference", refSetIdle}, {"timer", (*Sandbox).SetIdle}} {
		r := newReapRig(impl.setIdle)
		sb := r.ready(t)
		_ = r.setIdle(sb)
		at := r.eng.Now() + r.m.Node.P.KeepAliveIdle + sim.Millisecond
		r.eng.After(10*sim.Millisecond, func() { r.start(false) })
		if err := r.eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if r.m.WarmStarts != 1 {
			t.Fatalf("%s: warm starts = %d", impl.name, r.m.WarmStarts)
		}
		if want := fmt.Sprintf("%s@%v", sb.ID, at); len(r.reaps) != 1 || r.reaps[0] != want {
			t.Fatalf("%s: reaps = %v, want [%s]", impl.name, r.reaps, want)
		}
	}
}

// Re-arming the expiry check on every idle spell allocates nothing: the
// timer lives in the sandbox.
func TestSetIdleAllocs(t *testing.T) {
	eng, _, m := rig()
	var sb *Sandbox
	m.Start("leaf", func(s *Sandbox) { sb = s })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	step := sim.Millisecond
	avg := testing.AllocsPerRun(1000, func() {
		_ = sb.SetBusy()
		eng.At(eng.Now()+step, func() {})
		eng.Step()
		_ = sb.SetIdle()
	})
	if avg > 1 {
		t.Fatalf("SetIdle allocates %.2f/op beyond the scheduling closure, want <= 1", avg)
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, want the one armed check", eng.Pending())
	}
}

// Two sandboxes of one kind idle since the same instant: the warm pick must
// not follow map iteration order. Fresh managers hash their maps afresh, so
// 64 of them would catch a random pick; every one must hand back the
// earliest-created sandbox.
func TestWarmPickTieIsDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		eng, _, m := rig()
		var ready []*Sandbox
		m.Start("leaf", func(sb *Sandbox) { ready = append(ready, sb) })
		m.Start("leaf", func(sb *Sandbox) { ready = append(ready, sb) })
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		for _, sb := range ready {
			_ = sb.SetIdle()
		}
		if ready[0].LastIdle != ready[1].LastIdle {
			t.Fatal("sandboxes did not go idle at the same instant")
		}
		if got := m.Start("leaf", nil); got.ID != "leaf-node-0-1" {
			t.Fatalf("manager %d: warm start picked %s, want leaf-node-0-1", i, got.ID)
		}
	}
}
