package sim

import "fmt"

// Station models a pool of identical servers (CPU cores) with FIFO admission:
// a submitted job begins on the earliest-free server, no earlier than its
// submission time, and runs non-preemptively for its service demand. This is
// the classic multi-server FIFO approximation used to model per-node CPU
// contention — the effect behind Fig. 4 of the paper, where co-located leaf
// aggregators contend for network processing.
type Station struct {
	eng  *Engine
	name string

	// free[i] is the virtual time at which server i becomes free.
	free serverHeap

	// admitTail enforces FIFO: a job may not start before the previous
	// job's start time even if some server is free earlier.
	admitTail Duration

	// Accounting.
	busy     Duration // total server-busy time (CPU time consumed)
	jobs     uint64
	maxDelay Duration // worst queueing delay observed
}

// serverHeap is a value-based binary min-heap of free times. Only the
// minimum value is ever observable (Submit starts jobs on the earliest-free
// server), so any valid heap arrangement yields identical schedules.
type serverHeap []Duration

func (h serverHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i] >= h[parent] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h serverHeap) siftDown(i int) {
	n := len(h)
	for {
		min := i
		if l := 2*i + 1; l < n && h[l] < h[min] {
			min = l
		}
		if r := 2*i + 2; r < n && h[r] < h[min] {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// NewStation creates a station with the given number of servers.
func NewStation(eng *Engine, name string, servers int) *Station {
	if servers <= 0 {
		panic(fmt.Sprintf("sim: station %q needs at least one server", name))
	}
	return &Station{eng: eng, name: name, free: make(serverHeap, servers)}
}

// Reset returns an idle station to the state NewStation builds: every
// server free from time zero and the accounting cleared. The name and the
// server count stay. A job still running would be overlapped by the next
// one, so Reset panics if a server is busy past the current time.
func (s *Station) Reset() {
	if s.NextFreeIn() > 0 {
		panic(fmt.Sprintf("sim: station %q reset while busy", s.name))
	}
	for i := range s.free {
		s.free[i] = 0
	}
	s.admitTail, s.busy, s.jobs, s.maxDelay = 0, 0, 0, 0
}

// Servers returns the number of servers in the pool.
func (s *Station) Servers() int { return len(s.free) }

// Resize grows or shrinks the server pool (vertical scaling of the gateway,
// §4.2). Shrinking never cancels running jobs: it removes the earliest-free
// servers first, so in-flight work completes on its original schedule.
func (s *Station) Resize(servers int) {
	if servers <= 0 {
		panic(fmt.Sprintf("sim: station %q cannot resize to %d", s.name, servers))
	}
	for len(s.free) < servers {
		s.free = append(s.free, s.eng.Now())
		s.free.siftUp(len(s.free) - 1)
	}
	for len(s.free) > servers {
		n := len(s.free) - 1
		s.free[0] = s.free[n]
		s.free = s.free[:n]
		s.free.siftDown(0)
	}
}

// Submit enqueues a job with the given service demand. done, if non-nil, runs
// at the job's completion time and receives the start and end times. Submit
// returns the scheduled (start, end) pair immediately, which callers may use
// for planning; the simulation still advances through the engine.
func (s *Station) Submit(demand Duration, done func(start, end Duration)) (Duration, Duration) {
	if demand < 0 {
		panic(fmt.Sprintf("sim: station %q negative demand %v", s.name, demand))
	}
	now := s.eng.Now()
	start := s.free[0]
	if start < now {
		start = now
	}
	if start < s.admitTail {
		start = s.admitTail
	}
	s.admitTail = start
	end := start + demand
	s.free[0] = end
	s.free.siftDown(0)

	s.busy += demand
	s.jobs++
	if delay := start - now; delay > s.maxDelay {
		s.maxDelay = delay
	}
	if done != nil {
		s.eng.AtSpan(end, start, end, done)
	}
	return start, end
}

// NextFreeIn returns how long a job submitted now would wait for a server —
// the live backlog signal used by vertical autoscaling.
func (s *Station) NextFreeIn() Duration {
	earliest := s.free[0]
	if t := s.admitTail; t > earliest {
		earliest = t
	}
	if d := earliest - s.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// BusyTime returns total accumulated server-busy time — the CPU-time cost
// figures in the paper (Fig. 8(b), Fig. 9(b,d), Fig. 10(c,f)) integrate this.
func (s *Station) BusyTime() Duration { return s.busy }

// Jobs returns the number of jobs submitted so far.
func (s *Station) Jobs() uint64 { return s.jobs }

// MaxQueueDelay returns the worst admission delay seen by any job.
func (s *Station) MaxQueueDelay() Duration { return s.maxDelay }

// Name returns the station's diagnostic name.
func (s *Station) Name() string { return s.name }
