package core

import (
	"reflect"
	runtimemetrics "runtime/metrics"
	"testing"

	"repro/internal/flwork"
	"repro/internal/model"
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

// A long LIFL run's per-round allocation must not grow with run length:
// nothing the control plane keeps per round may be re-copied at round
// close once it passes some size. The shape is the bench's ctrl-churn
// (TinyFL, one node, eight clients a round), where the control plane is
// nearly all of the work, so a per-round record that grows and is then
// trimmed by copying shows up as a late window that allocates several
// times more bytes per round than an early one.
func TestLIFLAllocPerRoundFlat(t *testing.T) {
	cfg := RunConfig{
		System:         SystemLIFL,
		Model:          model.TinyFL,
		Clients:        512,
		ActivePerRound: 8,
		Class:          flwork.Server,
		TargetAccuracy: 0.99,
		MaxRounds:      6000,
		Nodes:          1,
		MC:             60,
		Seed:           1,
		Selector:       SelectStream,
		StreamOnly:     true,
	}
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
