package lifl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/trajstore"
)

// trajScenario shrinks the traj-100k registry entry to n rounds for test
// budgets (the registered entry runs 100K; nightly million-rounds runs 1M)
// and pins one system out of its all-systems sweep axis, so tests that
// need exactly one expanded run still get one.
func trajScenario(t *testing.T, n int, sys SystemKind) Scenario {
	t.Helper()
	sc, ok := GetScenario("traj-100k")
	if !ok {
		t.Fatal("traj-100k not registered")
	}
	sc.MaxRounds = n
	sc.Systems = []SystemKind{sys}
	return sc
}

// sweepTraj expands sc, attaches trajectory sinks under a fresh temp dir,
// sweeps with the given parallelism, and returns the sealed file's bytes.
func sweepTraj(t *testing.T, sc Scenario, parallel int) []byte {
	t.Helper()
	dir := t.TempDir()
	runs := sc.Expand()
	if len(runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(runs))
	}
	closeTraj, err := harness.AttachTrajectories(runs, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Sweep(runs, parallel) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := closeTraj(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(harness.TrajPath(dir, runs[0]))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTrajectoryDeterministic pins the format's headline contract: a fixed
// seed produces a byte-identical trajectory file whether the run is swept
// serially or in parallel, with a 1- or 8-goroutine staged round loop, or
// driven directly through Run without the harness. 10K rounds spans two
// full blocks plus a remainder at the default block capacity.
func TestTrajectoryDeterministic(t *testing.T) {
	const rounds = 10_000
	base := trajScenario(t, rounds, SystemSF)

	variants := map[string][]byte{}
	for name, f := range map[string]func() []byte{
		"serial-w1": func() (b []byte) {
			sc := base
			sc.Workers = 1
			return sweepTraj(t, sc, 1)
		},
		"serial-w8": func() []byte {
			sc := base
			sc.Workers = 8
			return sweepTraj(t, sc, 1)
		},
		"parallel-w8": func() []byte {
			sc := base
			sc.Workers = 8
			return sweepTraj(t, sc, 4)
		},
		"direct": func() []byte {
			cfg := base.Expand()[0].Cfg
			path := filepath.Join(t.TempDir(), "direct.traj")
			sink, err := trajstore.NewSink(path, cfg, trajstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trajectory = sink
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
	} {
		variants[name] = f()
	}

	ref := variants["serial-w1"]
	if len(ref) == 0 {
		t.Fatal("empty trajectory file")
	}
	for name, data := range variants {
		if !bytes.Equal(data, ref) {
			t.Errorf("%s trajectory differs from serial-w1 (%d vs %d bytes)", name, len(data), len(ref))
		}
	}
}

// TestTrajectoryIdenticalAcrossRetention pins the eviction half of the
// determinism contract at the file level: the retention window is a memory
// knob only, so the default window, a wide one, and retirement disabled
// must stream byte-identical trajectory files. LIFL is the shape with the
// most per-round control-plane state — the one eviction touches hardest.
func TestTrajectoryIdenticalAcrossRetention(t *testing.T) {
	base := trajScenario(t, 5_000, SystemLIFL).Expand()[0].Cfg
	runWith := func(retain int) []byte {
		cfg := base
		cfg.RetainRounds = retain
		path := filepath.Join(t.TempDir(), "run.traj")
		sink, err := trajstore.NewSink(path, cfg, trajstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trajectory = sink
		if _, err := Run(cfg); err != nil {
			t.Fatalf("retain=%d: %v", retain, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := runWith(-1)
	if len(ref) == 0 {
		t.Fatal("empty trajectory file")
	}
	for _, retain := range []int{2, 8} {
		if got := runWith(retain); !bytes.Equal(got, ref) {
			t.Errorf("retain=%d trajectory differs from retain=-1 (%d vs %d bytes)", retain, len(got), len(ref))
		}
	}
}

// shapeRun is one run shape's config, named for subtests.
type shapeRun struct {
	name string
	cfg  RunConfig
}

// shapeRuns returns one config per run shape over the traj-100k TinyFL
// workload, capped at rounds: a plain synchronous run of sys, the
// buffered-async system, and a 2-cell fabric of sys cells. The three book
// their rounds through one recorder, so every contract it owns must hold
// for each of them.
func shapeRuns(t *testing.T, rounds int, sys SystemKind) []shapeRun {
	t.Helper()
	plain := trajScenario(t, rounds, sys).Expand()[0].Cfg
	async := plain
	async.System = SystemAsync
	fabric := plain
	fabric.Cells = &CellSpec{Count: 2}
	return []shapeRun{{string(sys), plain}, {"async", async}, {"fabric-2cell", fabric}}
}

// TestReplayMatchesLiveRun pins replay fidelity for every run shape: every
// scalar the live Report carries — reached verdict, time/CPU-to-target,
// milestone crossings, round count — must be re-derivable from the file
// alone, and ReplayAt must return the exact observation the live run
// streamed.
func TestReplayMatchesLiveRun(t *testing.T) {
	for _, tc := range shapeRuns(t, 2000, SystemSF) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TargetAccuracy = 0.75 // reachable: TinyFL's curve tops out at 0.80
			cfg.Milestones = []float64{0.50, 0.70}

			live := map[int]RoundObservation{}
			cfg.OnRound = func(o RoundObservation) { live[o.Acc.Round] = o }
			path := filepath.Join(t.TempDir(), "run.traj")
			sink, err := trajstore.NewSink(path, cfg, trajstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trajectory = sink
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if !rep.Reached {
				t.Fatal("run did not reach its target; the test needs a crossing")
			}

			s, err := trajstore.Replay(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Rounds != rep.RoundsRun {
				t.Fatalf("replay rounds %d, live %d", s.Rounds, rep.RoundsRun)
			}
			if s.Reached != rep.Reached || s.TimeToTarget != rep.TimeToTarget || s.CPUToTarget != rep.CPUToTarget {
				t.Fatalf("replay target verdict (%v, %v, %v) != live (%v, %v, %v)",
					s.Reached, s.TimeToTarget, s.CPUToTarget, rep.Reached, rep.TimeToTarget, rep.CPUToTarget)
			}
			if len(s.Crossings) != len(rep.Milestones) {
				t.Fatalf("replay crossings %d, live milestones %d", len(s.Crossings), len(rep.Milestones))
			}
			for i, c := range s.Crossings {
				h := rep.Milestones[i]
				if c.Target != h.Target || c.Round != h.At.Round || c.Acc != h.At.Accuracy ||
					c.Sim != h.At.Time || c.CPU != h.At.CPUTime {
					t.Fatalf("crossing %d: replay %+v != live %+v", i, c, h)
				}
			}

			mid := s.First.Round + (s.Last.Round-s.First.Round)/2
			rec, _, err := trajstore.ReplayAt(path, mid)
			if err != nil {
				t.Fatal(err)
			}
			o, ok := live[mid]
			if !ok {
				t.Fatalf("no live observation for round %d", mid)
			}
			if rec.Acc != o.Acc.Accuracy || rec.Sim != o.Acc.Time || rec.CPU != o.Acc.CPUTime ||
				rec.Updates != o.Result.Updates || rec.Discarded != o.Discarded || rec.Shares != o.Shares {
				t.Fatalf("ReplayAt(%d) = %+v != live observation %+v", mid, rec, o)
			}
			if _, _, err := trajstore.ReplayAt(path, s.Last.Round+1); err == nil {
				t.Fatal("ReplayAt past the last round did not error")
			}
		})
	}
}

// errSinkFull is the failure failingSink injects.
var errSinkFull = errors.New("sink full")

// failingSink accepts observations until its failAt-th, which fails.
type failingSink struct{ failAt, seen int }

func (s *failingSink) Observe(RoundObservation) error {
	if s.seen++; s.seen == s.failAt {
		return errSinkFull
	}
	return nil
}

// TestSinkErrorAbortsEveryShape pins the trajectory contract for every
// run shape: a sink error aborts the run at the failing round — no Report,
// the sink's error in the chain — and OnRound has seen exactly the rounds
// the sink was offered, since it runs first.
func TestSinkErrorAbortsEveryShape(t *testing.T) {
	for _, tc := range shapeRuns(t, 50, SystemLIFL) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			seen := 0
			cfg.OnRound = func(RoundObservation) { seen++ }
			cfg.Trajectory = &failingSink{failAt: 3}
			rep, err := Run(cfg)
			if rep != nil || !errors.Is(err, errSinkFull) {
				t.Fatalf("Run = (%v, %v), want a nil Report and the sink's error", rep, err)
			}
			if seen != 3 {
				t.Fatalf("OnRound saw %d observations, want 3", seen)
			}
		})
	}
}

// TestFlatRSSLongRun is the bounded-memory assertion behind the
// million-rounds registry entry, held by every shape in its sweep: live
// heap sampled across the run must stay within a constant band of its
// early-run baseline — a bound independent of round count, so the same
// constant holds at the -short round counts and at the nightly full
// counts. SF gets the deepest run (its rounds are cheapest); the
// serverless shapes run fewer rounds but the same contract — before round
// retirement they grew without bound, so any slope reappearing here trips
// the band well inside these budgets. The trajectory sink is attached, so
// the bound covers the store's write path too.
func TestFlatRSSLongRun(t *testing.T) {
	cases := []struct {
		sys           SystemKind
		rounds, short int
	}{
		{SystemSF, 1_000_000, 100_000},
		{SystemLIFL, 200_000, 20_000},
		{SystemSLH, 200_000, 20_000},
		{SystemSL, 200_000, 20_000},
	}
	// Live heap after GC must never exceed the first sample by more than
	// this, no matter how many rounds follow. The runs' steady states are
	// well under 8 MB; the band absorbs GC timing noise, not growth.
	const maxGrowth = 16 << 20

	for _, tc := range cases {
		t.Run(string(tc.sys), func(t *testing.T) {
			rounds := tc.rounds
			if testing.Short() {
				rounds = tc.short
			}
			sc := trajScenario(t, rounds, tc.sys)
			sampleEvery := rounds / 8

			var baseline uint64
			samples := 0
			cfg := sc.Expand()[0].Cfg
			cfg.OnRound = func(o RoundObservation) {
				if o.Acc.Round%sampleEvery != 0 {
					return
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if baseline == 0 {
					baseline = ms.HeapAlloc
					return
				}
				samples++
				if ms.HeapAlloc > baseline+maxGrowth {
					t.Errorf("round %d: live heap %.1f MB exceeds baseline %.1f MB + %d MB",
						o.Acc.Round, float64(ms.HeapAlloc)/(1<<20), float64(baseline)/(1<<20), maxGrowth>>20)
				}
			}
			path := filepath.Join(t.TempDir(), "flat.traj")
			sink, err := trajstore.NewSink(path, cfg, trajstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trajectory = sink
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if rep.RoundsRun != rounds || sink.Rounds() != rounds {
				t.Fatalf("rounds: live %d, stored %d, want %d", rep.RoundsRun, sink.Rounds(), rounds)
			}
			if samples < 2 {
				t.Fatalf("only %d heap samples taken", samples)
			}
		})
	}
}
