package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecorderAndGrouping(t *testing.T) {
	var r Recorder
	r.Add("LF1", KindNetwork, 0, 2*sim.Second, 1)
	r.Add("LF1", KindAgg, 2*sim.Second, 3*sim.Second, 1)
	r.Add("Top", KindEval, 5*sim.Second, 8*sim.Second, 1)
	by := r.ByActor()
	if len(by["LF1"]) != 2 || len(by["Top"]) != 1 {
		t.Fatalf("grouping: %v", by)
	}
	if by["LF1"][0].Kind != KindNetwork {
		t.Fatal("spans not sorted by start")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add("a", KindAgg, 0, sim.Second, 1) // must not panic
}

func TestRenderGantt(t *testing.T) {
	var r Recorder
	r.Add("LF1", KindNetwork, 0, 5*sim.Second, 0)
	r.Add("LF1", KindAgg, 5*sim.Second, 10*sim.Second, 0)
	r.Add("Top", KindEval, 8*sim.Second, 10*sim.Second, 0)
	out := r.RenderGantt([]string{"LF1", "Top"}, 10*sim.Second, 40)
	if !strings.Contains(out, "LF1") || !strings.Contains(out, "Top") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "▒") || !strings.Contains(out, "█") || !strings.Contains(out, "▓") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines))
	}
}

func TestRenderGanttDefaults(t *testing.T) {
	var r Recorder
	r.Add("a", KindAgg, 0, sim.Second, 0)
	// Zero horizon and width fall back to sane defaults without panicking.
	out := r.RenderGantt([]string{"a", "missing"}, 0, 0)
	if out == "" {
		t.Fatal("empty render")
	}
}
