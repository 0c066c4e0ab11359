package sim

import (
	"testing"
	"testing/quick"
)

func TestStationSingleServerSerializes(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 1)
	var ends []Duration
	for i := 0; i < 3; i++ {
		s.Submit(10*Second, func(_, end Duration) { ends = append(ends, end) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []Duration{10 * Second, 20 * Second, 30 * Second}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if s.BusyTime() != 30*Second {
		t.Fatalf("busy = %v", s.BusyTime())
	}
}

func TestStationMultiServerParallel(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 3)
	done := 0
	for i := 0; i < 3; i++ {
		s.Submit(10*Second, func(start, end Duration) {
			if start != 0 || end != 10*Second {
				t.Errorf("job not parallel: start=%v end=%v", start, end)
			}
			done++
		})
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
}

func TestStationFIFOAdmission(t *testing.T) {
	// A short job submitted after a long one must not start before it even
	// when a server frees up earlier.
	e := NewEngine()
	s := NewStation(e, "s", 2)
	s.Submit(10*Second, nil) // server A busy to 10
	s.Submit(2*Second, nil)  // server B busy to 2
	s.Submit(20*Second, nil) // takes B at 2
	var start3 Duration
	s.Submit(1*Second, func(start, _ Duration) { start3 = start })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Earliest free server is A at 10; FIFO also requires start ≥ previous
	// start (2). Expected start: 10.
	if start3 != 10*Second {
		t.Fatalf("start = %v, want 10s", start3)
	}
}

func TestStationResizeGrows(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 1)
	s.Submit(10*Second, nil)
	s.Resize(2)
	var start Duration
	s.Submit(1*Second, func(st, _ Duration) { start = st })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("job should start immediately on the new server, started %v", start)
	}
	if s.Servers() != 2 {
		t.Fatalf("servers = %d", s.Servers())
	}
}

func TestStationResizeShrinkKeepsRunningJobs(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 4)
	completed := 0
	for i := 0; i < 4; i++ {
		s.Submit(10*Second, func(_, _ Duration) { completed++ })
	}
	s.Resize(1)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if completed != 4 {
		t.Fatalf("shrink cancelled jobs: completed=%d", completed)
	}
}

func TestStationNextFreeIn(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 1)
	if s.NextFreeIn() != 0 {
		t.Fatalf("idle station backlog = %v", s.NextFreeIn())
	}
	s.Submit(10*Second, nil)
	if s.NextFreeIn() != 10*Second {
		t.Fatalf("backlog = %v, want 10s", s.NextFreeIn())
	}
	s.Submit(5*Second, nil)
	if s.NextFreeIn() != 15*Second {
		t.Fatalf("backlog = %v, want 15s", s.NextFreeIn())
	}
}

func TestStationZeroServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStation(NewEngine(), "s", 0)
}

func TestStationNegativeDemandPanics(t *testing.T) {
	e := NewEngine()
	s := NewStation(e, "s", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(-Second, nil)
}

// Property: total busy time equals the sum of demands, and the makespan is
// at least busy/servers (work conservation lower bound).
func TestStationWorkConservation(t *testing.T) {
	f := func(raw []uint8, serversRaw uint8) bool {
		servers := int(serversRaw%8) + 1
		e := NewEngine()
		s := NewStation(e, "s", servers)
		var total Duration
		var last Duration
		for _, r := range raw {
			d := Duration(r) * Millisecond
			total += d
			s.Submit(d, func(_, end Duration) {
				if end > last {
					last = end
				}
			})
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		if s.BusyTime() != total {
			return false
		}
		return last >= total/Duration(servers)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueSerializesTransfers(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 100, 0) // 100 B/s
	var ends []Duration
	q.Transfer(100, func(_, end Duration) { ends = append(ends, end) })
	q.Transfer(100, func(_, end Duration) { ends = append(ends, end) })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != Second || ends[1] != 2*Second {
		t.Fatalf("ends = %v", ends)
	}
	if q.Bytes() != 200 || q.Transfers() != 2 {
		t.Fatalf("accounting: %d bytes %d transfers", q.Bytes(), q.Transfers())
	}
}

func TestQueueLatencyAddsPerTransfer(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 100, 500*Millisecond)
	var end Duration
	q.Transfer(100, func(_, e2 Duration) { end = e2 })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if end != Second+500*Millisecond {
		t.Fatalf("end = %v", end)
	}
}

func TestQueueBacklog(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 100, 0)
	q.Transfer(300, nil)
	if q.Backlog() != 3*Second {
		t.Fatalf("backlog = %v", q.Backlog())
	}
}

func TestQueueServiceTimeScalesLinearly(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 1e6, 0)
	if q.ServiceTime(2e6) != 2*Second {
		t.Fatalf("service time = %v", q.ServiceTime(2e6))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		d := g.Jitter(10*Second, 0.2)
		if d < 8*Second || d > 12*Second {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
	if g.Jitter(10*Second, 0) != 10*Second {
		t.Fatal("zero-frac jitter must be identity")
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(2)
	if g.Uniform(0) != 0 {
		t.Fatal("uniform(0) must be 0")
	}
	for i := 0; i < 1000; i++ {
		d := g.Uniform(Minute)
		if d < 0 || d >= Minute {
			t.Fatalf("uniform out of range: %v", d)
		}
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if g.LogNormal(1, 0.5) <= 0 {
			t.Fatal("log-normal must be positive")
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	g := NewRNG(4)
	p := g.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// An idle station after Reset schedules exactly like a new one — FIFO
// admission and free times restart, the accounting is cleared — and a
// busy station refuses to reset.
func TestStationResetMatchesNew(t *testing.T) {
	e := NewEngine()
	used := NewStation(e, "cpu", 2)
	used.Submit(3*Second, nil)
	used.Submit(5*Second, nil)
	compared := false
	defer func() {
		if recover() == nil || !compared {
			t.Fatalf("Reset accepted a busy station, or refused an idle one (compared = %v)", compared)
		}
	}()
	e.At(6*Second, func() {
		used.Reset()
		fresh := NewStation(e, "cpu", 2)
		for _, d := range []Duration{2 * Second, Second, 4 * Second} {
			s1, e1 := used.Submit(d, nil)
			s2, e2 := fresh.Submit(d, nil)
			if s1 != s2 || e1 != e2 {
				t.Fatalf("reset station schedules (%v, %v), new one (%v, %v)", s1, e1, s2, e2)
			}
		}
		if used.BusyTime() != fresh.BusyTime() || used.Jobs() != fresh.Jobs() || used.MaxQueueDelay() != fresh.MaxQueueDelay() {
			t.Fatal("Reset left accounting behind")
		}
		compared = true
		used.Reset() // both servers busy now
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}
