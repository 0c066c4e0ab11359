package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3*Second, func() { order = append(order, 3) })
	e.At(1*Second, func() { order = append(order, 1) })
	e.At(2*Second, func() { order = append(order, 2) })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3*Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEngineTieBreaksBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Second, func() { order = append(order, i) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5*Second, func() {})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(Second, func() {})
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Duration
	e.At(10*Second, func() {
		e.After(5*Second, func() { at = e.Now() })
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 15*Second {
		t.Fatalf("After fired at %v, want 15s", at)
	}
}

func TestEngineRunUntilBound(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1*Second, func() { fired++ })
	e.At(10*Second, func() { fired++ })
	if err := e.Run(5 * Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 5*Second {
		t.Fatalf("clock should land on the bound, got %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if err := e.Run(-1); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d after completion", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1*Second, func() { fired++; e.Stop() })
	e.At(2*Second, func() { fired++ })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("Stop did not halt the loop (fired=%d)", fired)
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(Second, loop) }
	e.After(Second, loop)
	if err := e.RunUntilIdle(); err == nil {
		t.Fatal("runaway loop not caught")
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1*Second, func() { n++ })
	e.At(2*Second, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

// Determinism: the same schedule built twice executes identically.
func TestEngineDeterminism(t *testing.T) {
	build := func() []Duration {
		e := NewEngine()
		rng := NewRNG(99)
		var fires []Duration
		var add func(depth int)
		add = func(depth int) {
			if depth > 3 {
				return
			}
			e.After(rng.Uniform(Second), func() {
				fires = append(fires, e.Now())
				add(depth + 1)
				add(depth + 1)
			})
		}
		add(0)
		if err := e.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return fires
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, the engine visits them in
// sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Duration
		for _, d := range delays {
			d := Duration(d) * Millisecond
			e.At(d, func() { seen = append(seen, e.Now()) })
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---- Engine equivalence vs. the seed's boxed container/heap scheduler ----
//
// refEngine re-implements the original event loop (pointer events in a
// binary container/heap) so the value-based 4-ary engine can be proven to
// execute an arbitrary schedule in the exact same (time, seq) order. It has
// no way to take an event back: a stopped timer's event stays queued,
// flagged, and runs as a no-op — the schedule the Timer contract must match
// once those no-ops are filtered out.

type refEvent struct {
	at        Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now    Duration
	seq    uint64
	events refHeap
	timers []func()
	queued []*refEvent // per timer: its latest queued event
}

func (e *refEngine) at(t Duration, fn func()) *refEvent {
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		e.now = ev.at
		if !ev.cancelled {
			ev.fn()
		}
	}
}

// scheduler is the scheduling surface the equivalence workload drives,
// implemented once over each engine.
type scheduler interface {
	now() Duration
	after(d Duration, fn func())
	afterSpan(d Duration, fn func())
	newTimer(fn func()) int
	reset(h int, d Duration)
	stop(h int)
	run() error
}

type refScheduler struct{ e *refEngine }

func (r refScheduler) now() Duration               { return r.e.now }
func (r refScheduler) after(d Duration, fn func()) { r.e.at(r.e.now+d, fn) }
func (r refScheduler) afterSpan(d Duration, fn func()) {
	r.e.at(r.e.now+d, fn)
}
func (r refScheduler) newTimer(fn func()) int {
	r.e.timers = append(r.e.timers, fn)
	r.e.queued = append(r.e.queued, nil)
	return len(r.e.timers) - 1
}
func (r refScheduler) reset(h int, d Duration) {
	r.stop(h)
	r.e.queued[h] = r.e.at(r.e.now+d, r.e.timers[h])
}
func (r refScheduler) stop(h int) {
	if ev := r.e.queued[h]; ev != nil {
		ev.cancelled = true
	}
}
func (r refScheduler) run() error { r.e.run(); return nil }

type engScheduler struct {
	e      *Engine
	timers *[]*Timer
}

func (d engScheduler) now() Duration               { return d.e.Now() }
func (d engScheduler) after(x Duration, fn func()) { d.e.After(x, fn) }
func (d engScheduler) afterSpan(x Duration, fn func()) {
	d.e.AtSpan(d.e.Now()+x, d.e.Now(), d.e.Now()+x, func(_, end Duration) {
		if end != d.e.Now() {
			panic("AtSpan delivered a span that does not end now")
		}
		fn()
	})
}
func (d engScheduler) newTimer(fn func()) int {
	tm := d.e.NewTimer(fn)
	*d.timers = append(*d.timers, &tm)
	return len(*d.timers) - 1
}
func (d engScheduler) reset(h int, x Duration) { (*d.timers)[h].Reset(x) }
func (d engScheduler) stop(h int)              { (*d.timers)[h].Stop() }
func (d engScheduler) run() error              { return d.e.RunUntilIdle() }

// equivalenceTrace runs a randomized, self-rescheduling workload on d: a
// third of the events are plain At callbacks, a third AtSpan completions
// and a third timers, and every event that runs may stop or re-arm a random
// armed timer. It returns the executed events as "id@time".
func equivalenceTrace(t *testing.T, d scheduler, seed int64) []string {
	rng := NewRNG(seed)
	var out []string
	var armed []int // timer handles with a firing queued
	drop := func(k int) { armed = append(armed[:k], armed[k+1:]...) }
	var spawn func(id, depth int)
	fire := func(id, depth int) {
		out = append(out, fmt.Sprintf("%d@%v", id, d.now()))
		switch rng.Intn(4) {
		case 0:
			if len(armed) > 0 {
				k := rng.Intn(len(armed))
				d.stop(armed[k])
				drop(k)
			}
		case 1:
			if len(armed) > 0 {
				d.reset(armed[rng.Intn(len(armed))], rng.Uniform(Second))
			}
		}
		if depth < 3 {
			spawn(id*10+1, depth+1)
			spawn(id*10+2, depth+1)
		}
	}
	spawn = func(id, depth int) {
		delay := rng.Uniform(Second)
		switch id % 3 {
		case 0:
			d.after(delay, func() { fire(id, depth) })
		case 1:
			d.afterSpan(delay, func() { fire(id, depth) })
		default:
			var h int
			h = d.newTimer(func() {
				for k, a := range armed {
					if a == h {
						drop(k)
						break
					}
				}
				fire(id, depth)
			})
			d.reset(h, delay)
			armed = append(armed, h)
		}
	}
	for i := 0; i < 8; i++ {
		spawn(i, 0)
	}
	if err := d.run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineEquivalentToBoxedHeap drives both engines through an identical
// randomized workload — At, AtSpan and Timer events interleaved through one
// heap, with random Stops and re-arms — and requires the engine's execution
// trace to equal the reference's with the stopped events filtered out.
func TestEngineEquivalentToBoxedHeap(t *testing.T) {
	const seeds = 40
	stopped := 0
	for s := int64(0); s < seeds; s++ {
		refEng := &refEngine{}
		ref := equivalenceTrace(t, refScheduler{refEng}, s)
		var timers []*Timer
		got := equivalenceTrace(t, engScheduler{e: NewEngine(), timers: &timers}, s)
		if len(ref) != len(got) {
			t.Fatalf("seed %d: %d events vs %d", s, len(ref), len(got))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("seed %d: divergence at event %d: %q vs %q", s, i, ref[i], got[i])
			}
		}
		for _, tm := range timers {
			if tm.Armed() {
				t.Fatalf("seed %d: a timer is still armed after the engine drained", s)
			}
		}
		for _, ev := range refEng.queued {
			if ev != nil && ev.cancelled {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Fatal("the workload stopped no timer event")
	}
}

// TestEngineAtSpanDeliversSpan checks the inline (start, end) payload.
func TestEngineAtSpanDeliversSpan(t *testing.T) {
	e := NewEngine()
	var gs, ge Duration
	e.AtSpan(4*Second, 2*Second, 4*Second, func(start, end Duration) { gs, ge = start, end })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if gs != 2*Second || ge != 4*Second {
		t.Fatalf("span = (%v, %v)", gs, ge)
	}
	if e.Now() != 4*Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

// TestEngineAtSpanPastPanics mirrors the At causality guard.
func TestEngineAtSpanPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5*Second, func() {})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling AtSpan in the past")
		}
	}()
	e.AtSpan(Second, 0, Second, func(_, _ Duration) {})
}

// TestEngineAfterAllocs is the allocation-regression guard of the event
// engine: steady-state scheduling (push + pop with warm capacity) must cost
// at most one amortized allocation per event — in practice zero, since the
// free-list capacity is reused; the budget of 1 absorbs the rare growth.
func TestEngineAfterAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the heap capacity.
	for i := 0; i < 64; i++ {
		e.After(Duration(i)*Millisecond, fn)
	}
	for e.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.After(Millisecond, fn)
		e.Step()
	})
	if avg > 1 {
		t.Fatalf("Engine.After allocates %.2f/op, want <= 1 amortized", avg)
	}
}

// TestTimerResetAllocs: re-arming a timer — queued or not — and stopping
// it allocate nothing once the heap's capacity is warm; the firing rides in
// the event value and the handle lives in the Timer itself.
func TestTimerResetAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Duration(i)*Millisecond, fn)
	}
	for e.Step() {
	}
	tm := e.NewTimer(fn)
	avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(Millisecond)
		tm.Reset(2 * Millisecond) // re-arm while queued
		e.After(Millisecond, fn)
		tm.Stop()
		tm.Reset(Millisecond)
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("Timer.Reset/Stop allocates %.2f/op, want 0", avg)
	}
	if e.Pending() != 0 || tm.Armed() {
		t.Fatalf("pending = %d, armed = %v after draining", e.Pending(), tm.Armed())
	}
}

// Stop takes the firing out of the engine: Pending drops at once, nothing
// runs, and the clock never visits the cancelled time.
func TestTimerStopRemovesEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(10 * Second)
	e.After(Second, func() {})
	if e.Pending() != 2 || !tm.Armed() {
		t.Fatalf("pending = %d, armed = %v", e.Pending(), tm.Armed())
	}
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop must report the queued firing exactly once")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after Stop, want 1", e.Pending())
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || e.Now() != Second {
		t.Fatalf("fired = %d, clock = %v", fired, e.Now())
	}
	// Re-armed from inside its own callback, a timer fires again.
	tm = e.NewTimer(nil)
	tm.fn = func() {
		if fired++; fired < 3 {
			tm.Reset(Second)
		}
	}
	tm.Reset(Second)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 || e.Now() != 4*Second {
		t.Fatalf("fired = %d, clock = %v", fired, e.Now())
	}
}

// TestStationSubmitAllocs: with AtSpan carrying the completion span, a
// station job schedules its completion without any closure allocation.
func TestStationSubmitAllocs(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "cpu", 2)
	done := func(_, _ Duration) {}
	for i := 0; i < 64; i++ {
		s.Submit(Millisecond, done)
	}
	for e.Step() {
	}
	avg := testing.AllocsPerRun(1000, func() {
		s.Submit(Millisecond, done)
		e.Step()
	})
	if avg > 1 {
		t.Fatalf("Station.Submit allocates %.2f/op, want <= 1 amortized", avg)
	}
}
