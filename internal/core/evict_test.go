package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	runtimemetrics "runtime/metrics"
	"testing"

	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/obs"
)

// The retirement determinism contract: RetainRounds is a memory knob, not
// a schedule knob. For a fixed seed, every retention window — the default,
// a wide one, and retirement disabled outright — must produce a
// byte-identical Report, because eviction only drops closed rounds'
// bookkeeping and never touches the event queue, the CPU accounting, or
// the model bits.
func TestRetainRoundsByteIdenticalReports(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"lifl", smallCfg(SystemLIFL)},
		{"slh", smallCfg(SystemSLH)},
		{"sf", smallCfg(SystemSF)},
		{"sl", smallCfg(SystemSL)},
		{"async", smallAsync()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg
			ref.RetainRounds = -1 // retirement disabled: every record retained
			want, err := Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			stripReportWall(want)
			for _, rr := range []int{DefaultRetainRounds, 8} {
				cfg := tc.cfg
				cfg.RetainRounds = rr
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("retain=%d: %v", rr, err)
				}
				stripReportWall(got)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("retain=%d diverged from retain=-1:\noff: rounds=%d elapsed=%v cpu=%v\non:  rounds=%d elapsed=%v cpu=%v",
						rr, want.RoundsRun, want.Elapsed, want.CPUTotal,
						got.RoundsRun, got.Elapsed, got.CPUTotal)
				}
			}
		})
	}
}

// RetainRounds zero means the default window — the knob must round-trip
// through withDefaults without disabling retirement.
func TestRetainRoundsDefaulting(t *testing.T) {
	cfg := smallCfg(SystemLIFL)
	d := cfg.Defaulted()
	if d.RetainRounds != DefaultRetainRounds {
		t.Fatalf("zero RetainRounds defaulted to %d, want %d", d.RetainRounds, DefaultRetainRounds)
	}
	cfg.RetainRounds = -3
	if d := cfg.Defaulted(); d.RetainRounds != -3 {
		t.Fatalf("negative RetainRounds rewritten to %d", d.RetainRounds)
	}
}

// ctrlChurn is the bench's ctrl-churn shape (LIFL, TinyFL, one node,
// eight clients a round), where the control plane is nearly all of the
// work; the unreachable target runs every one of its rounds.
func ctrlChurn(rounds int) RunConfig {
	return RunConfig{
		System:         SystemLIFL,
		Model:          model.TinyFL,
		Clients:        512,
		ActivePerRound: 8,
		Class:          flwork.Server,
		TargetAccuracy: 0.99,
		MaxRounds:      rounds,
		Nodes:          1,
		MC:             60,
		Seed:           1,
		Selector:       SelectStream,
		StreamOnly:     true,
	}
}

// A long LIFL run's per-round allocation must not grow with run length:
// nothing the control plane keeps per round may be re-copied at round
// close once it passes some size. On ctrl-churn a per-round record that
// grows and is then trimmed by copying shows up as a late window that
// allocates several times more bytes per round than an early one.
func TestLIFLAllocPerRoundFlat(t *testing.T) {
	cfg := ctrlChurn(6000)
	sample := []runtimemetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtimemetrics.Read(sample) // the first Read may allocate
	allocs := map[int]uint64{1000: 0, 2000: 0, 5000: 0, 6000: 0}
	cfg.OnRound = func(ob RoundObservation) {
		if _, ok := allocs[ob.Result.Round]; ok {
			runtimemetrics.Read(sample)
			allocs[ob.Result.Round] = sample[0].Value.Uint64()
		}
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsRun != cfg.MaxRounds {
		t.Fatalf("ran %d rounds, want %d", rep.RoundsRun, cfg.MaxRounds)
	}
	early := float64(allocs[2000]-allocs[1000]) / 1000
	late := float64(allocs[6000]-allocs[5000]) / 1000
	t.Logf("%.0f B/round early, %.0f B/round late", early, late)
	if late > 1.25*early {
		t.Fatalf("allocation per round grew with run length: %.0f B/round over rounds 1000-2000, %.0f B/round over 5000-6000",
			early, late)
	}
}

// allocsPerRound runs cfg (a ctrl-churn config of at least 3,000 rounds)
// and returns the heap objects allocated per round over rounds 1,000 to
// 3,000. Each read follows a forced collection, which flushes the per-P
// allocation counts the runtime otherwise publishes lazily; the collector
// stays paused in between, so sync.Pool refills cannot count against
// whichever run happened to collect more often.
func allocsPerRound(t *testing.T, cfg RunConfig) float64 {
	t.Helper()
	sample := []runtimemetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	read := func() uint64 {
		runtime.GC()
		runtimemetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var from, to uint64
	var gcPercent int
	cfg.OnRound = func(ob RoundObservation) {
		switch ob.Result.Round {
		case 1000:
			from = read()
			gcPercent = debug.SetGCPercent(-1)
		case 3000:
			to = read()
			debug.SetGCPercent(gcPercent)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	return float64(to-from) / 2000
}

// Telemetry allocates nothing per round: metric names and histogram
// bounds are built once, not per round, so attaching a registry leaves a
// ctrl-churn round's allocation count where it was. The window starts at
// round 1,000, when the span log has reached its cap and stopped growing.
func TestTelemetryAllocFreePerRound(t *testing.T) {
	off := allocsPerRound(t, ctrlChurn(3000))
	cfg := ctrlChurn(3000)
	cfg.Telemetry = obs.New(obs.Options{})
	on := allocsPerRound(t, cfg)
	t.Logf("%.2f allocs/round without telemetry, %.2f with", off, on)
	if on-off > 0.5 {
		t.Fatalf("telemetry adds %.2f allocs/round (%.2f without, %.2f with), want <= 0.5", on-off, off, on)
	}
}

// A ctrl-churn round queues only events that do work. A keep-alive check
// that can no longer pass is cancelled rather than left to fire as a no-op
// (each sandbox holds one re-armed timer), so at round close the engine
// carries a handful of events instead of one stale check per idle
// transition (≈182).
func TestCtrlChurnPendingEventsAtRoundClose(t *testing.T) {
	p, err := NewPlatform(ctrlChurn(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if n := p.Eng.Pending(); n > 20 {
		t.Fatalf("%d events pending at the close of round 1,000, want <= 20", n)
	}
}

// A ctrl-churn round allocates only objects that do work: no hex string
// per shm key, no client ID formatted twice, no error built per parked
// update, no closure per fold or keep-alive check, no fresh aggregator,
// accumulator, station and output tensor for a slot a closed round's
// instance can serve, and no TAG nobody reads. That took a round from
// ≈313 heap objects to under 200.
func TestCtrlChurnAllocsPerRound(t *testing.T) {
	perRound := allocsPerRound(t, ctrlChurn(3000))
	t.Logf("%.2f allocs/round", perRound)
	if perRound > 200 {
		t.Fatalf("a ctrl-churn round allocates %.2f heap objects, want <= 200", perRound)
	}
}
