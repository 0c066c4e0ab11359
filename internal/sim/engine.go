package sim

import (
	"fmt"
	"math"
	"time"
)

// Duration is virtual simulated time measured from the start of a run.
// It aliases time.Duration so callers can use natural literals (3 * sim.Second).
type Duration = time.Duration

// Convenience re-exports so simulation code does not need to import time.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// event is a scheduled callback, stored by value in the heap. seq breaks
// ties so that events scheduled earlier run earlier when their times are
// equal, making runs deterministic. Exactly one of fn/spanFn/timer is set;
// spanFn events carry their (start, end) pair inline so completion
// callbacks need no capturing closure, and timer events point back at the
// Timer whose heap position they keep current.
type event struct {
	at  Duration
	seq uint64
	fn  func()

	spanFn     func(start, end Duration)
	start, end Duration

	timer *Timer
}

// before reports whether e runs strictly before o in the total event order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a value-based 4-ary min-heap ordered by (at, seq). A 4-ary
// layout halves the tree depth of a binary heap, trading slightly wider
// sift-down comparisons for fewer cache-missing levels — the right trade for
// the short (tens of entries) but extremely hot pending sets of a Fig. 9 run.
// Sifts move a hole instead of swapping, and every store goes through set,
// which keeps a timer event's recorded position current.
type eventHeap []event

const heapArity = 4

// set stores ev at index i and, for a timer event, records the position.
func (h eventHeap) set(i int, ev event) {
	h[i] = ev
	if ev.timer != nil {
		ev.timer.pos = i + 1
	}
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, ev)
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&ev) {
			break
		}
		h.set(i, h[min])
		i = min
	}
	h.set(i, ev)
}

// push inserts e; the append reuses freed capacity, so steady-state
// scheduling does not allocate.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// remove takes the event at index i out of the heap and returns it. The
// vacated tail slot is zeroed so the retained capacity (the free list) does
// not pin callbacks, and a removed timer event marks its timer idle.
func (h *eventHeap) remove(i int) event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if ev.timer != nil {
		ev.timer.pos = 0
	}
	old[i] = old[n]
	old[n] = event{}
	rest := old[:n]
	*h = rest
	if i < n {
		if i > 0 && rest[i].before(&rest[(i-1)/heapArity]) {
			rest.siftUp(i)
		} else {
			rest.siftDown(i)
		}
	}
	return ev
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event { return h.remove(0) }

// Engine is the discrete-event scheduler. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Duration
	seq     uint64
	events  eventHeap
	stopped bool

	// Executed counts events run so far; useful for runaway detection in tests.
	Executed uint64
	// MaxEvents aborts Run with an error when exceeded (0 = unlimited).
	MaxEvents uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Duration { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently clamping would
// corrupt causality.
func (e *Engine) At(t Duration, fn func()) { e.schedule(event{at: t, fn: fn}) }

// AtSpan schedules fn(start, end) at absolute virtual time t. It is the
// allocation-lean variant of At for completion callbacks that deliver a
// (start, end) pair — the dominant event shape in the simulator (station
// jobs, queue transfers): the span rides in the event value instead of a
// capturing closure, so scheduling allocates nothing.
func (e *Engine) AtSpan(t Duration, start, end Duration, fn func(start, end Duration)) {
	e.schedule(event{at: t, spanFn: fn, start: start, end: end})
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// schedule stamps ev with the next sequence number and queues it.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

// Timer is a one-shot event that can be cancelled and re-armed without
// allocating. It is bound to its callback once, by NewTimer; each Reset
// queues one firing and each Stop takes a queued firing back out of the
// engine. The heap keeps the queued event's position in the Timer, so Stop
// costs O(log n) and a stopped firing leaves nothing behind to run as a
// no-op. Keep a Timer by value in the object it belongs to, and do not copy
// it once it has been armed.
type Timer struct {
	eng *Engine
	fn  func()
	pos int // 1 + heap index of the queued firing; 0 when none is queued
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn func()) Timer { return Timer{eng: e, fn: fn} }

// Reset arms the timer to fire d after the current time, first stopping a
// firing that is still queued. Like After it takes the engine's next
// sequence number, so the firing is ordered against every other event
// exactly as an After called at the same point would be. Negative d panics.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.eng.schedule(event{at: t.eng.now + d, timer: t})
}

// Stop cancels the queued firing, if any, and reports whether there was
// one. Cancelling never reorders the remaining events: they keep their
// (time, seq) keys, and the heap's order is total on those keys.
func (t *Timer) Stop() bool {
	if t.pos == 0 {
		return false
	}
	t.eng.events.remove(t.pos - 1)
	return true
}

// Armed reports whether a firing is queued.
func (t *Timer) Armed() bool { return t.pos != 0 }

// Pending reports the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return len(e.events) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.Executed++
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.spanFn != nil:
		ev.spanFn(ev.start, ev.end)
	default:
		ev.timer.fn()
	}
	return true
}

// Run executes events until the queue drains, Stop is called, or the clock
// would pass until (inclusive). Pass a negative until to run to completion.
func (e *Engine) Run(until Duration) error {
	if until < 0 {
		until = Duration(math.MaxInt64)
	}
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		if e.events[0].at > until {
			e.now = until
			return nil
		}
		if e.MaxEvents > 0 && e.Executed >= e.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now)
		}
		e.Step()
	}
	if e.now < until && until != Duration(math.MaxInt64) {
		e.now = until
	}
	return nil
}

// RunUntilIdle executes all pending events with no time bound.
func (e *Engine) RunUntilIdle() error { return e.Run(-1) }
