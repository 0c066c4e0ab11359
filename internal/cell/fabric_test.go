package cell

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/obs"
)

// baseCfg is a trimmed fig9-r18-shaped workload: small enough to run in
// tens of milliseconds, large enough for real hierarchies in every cell.
func baseCfg() core.RunConfig {
	return core.RunConfig{
		Model:          model.ResNet18,
		Clients:        360,
		ActivePerRound: 24,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      95,
		Nodes:          3,
		MC:             60,
		Seed:           7,
		Milestones:     []float64{0.50, 0.70},
	}
}

// stripWall zeroes the real-clock channels, which legitimately differ
// between any two executions.
func stripWall(r *core.Report) {
	r.RoundWallTotal = 0
	r.RoundWallMax = 0
}

// The fabric's golden rule: one cell is no fabric at all. A K=1 run must
// produce a Report byte-identical to core.Run on the identical config —
// same rounds, same simulated times, same CPU, same final model — and the
// same Det telemetry snapshot.
func TestFabricK1MatchesPlainRun(t *testing.T) {
	cfg := baseCfg()
	plainReg := obs.New(obs.Options{})
	cfg.Telemetry = plainReg
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Cells = &core.CellSpec{Count: 1}
	fabricReg := obs.New(obs.Options{})
	fcfg.Telemetry = fabricReg
	rep, det, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Reached || !rep.Reached {
		t.Fatalf("runs did not reach target: plain %v fabric %v", plain.Reached, rep.Reached)
	}
	stripWall(plain)
	stripWall(rep)
	if !reflect.DeepEqual(plain, rep) {
		t.Fatalf("K=1 fabric diverged from plain run:\nplain:  rounds=%d elapsed=%v cpu=%v tta=%v acc[last]=%+v\nfabric: rounds=%d elapsed=%v cpu=%v tta=%v acc[last]=%+v",
			plain.RoundsRun, plain.Elapsed, plain.CPUTotal, plain.TimeToTarget, plain.Acc[len(plain.Acc)-1],
			rep.RoundsRun, rep.Elapsed, rep.CPUTotal, rep.TimeToTarget, rep.Acc[len(rep.Acc)-1])
	}
	if a, b := plainReg.Snapshot(), fabricReg.Snapshot(); !bytes.Equal(a, b) {
		t.Fatalf("K=1 fabric snapshot diverged from plain run:\nplain:  %s\nfabric: %s", a, b)
	}
	if len(det.Cells) != 1 || det.Cells[0].Clients != cfg.Clients || det.Cells[0].ActivePerRound != cfg.ActivePerRound {
		t.Fatalf("K=1 detail wrong: %+v", det.Cells)
	}
}

// A multi-cell fabric books its global rounds through core's recorder, so
// its snapshot carries the run's accuracy like every other shape's: the
// core/accuracy gauge holds the Report's last accuracy point.
func TestFabricSnapshotAccuracy(t *testing.T) {
	cfg := baseCfg()
	cfg.Cells = &core.CellSpec{Count: 2}
	reg := obs.New(obs.Options{})
	cfg.Telemetry = reg
	rep, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Gauges map[string]float64 }
	if err := json.Unmarshal(reg.Snapshot(), &snap); err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Gauges["core/accuracy"]
	if want := rep.Acc[len(rep.Acc)-1].Accuracy; !ok || got != want {
		t.Fatalf("snapshot core/accuracy = %v (present %v), report's last accuracy %v", got, ok, want)
	}
}

// A 4-cell skewed-region fabric: the router must conserve the population,
// the shares must sum to the active quota, the run must converge, and two
// executions must be byte-identical (fixed seed).
func TestFabricGeoRunDeterministic(t *testing.T) {
	cfg := baseCfg()
	cfg.Cells = &core.CellSpec{Count: 4, Regions: []float64{0.4, 0.3, 0.2, 0.1}}
	rep1, det1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, det2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(rep1)
	stripWall(rep2)
	if !reflect.DeepEqual(rep1, rep2) || !reflect.DeepEqual(det1, det2) {
		t.Fatal("fabric run not deterministic across executions")
	}
	if !rep1.Reached {
		t.Fatalf("geo run did not reach target in %d rounds", rep1.RoundsRun)
	}
	clients, shares := 0, 0
	for _, c := range det1.Cells {
		clients += c.Clients
		shares += c.ActivePerRound
		if c.RoundsRun != rep1.RoundsRun {
			t.Fatalf("cell %d ran %d rounds, fabric %d", c.Cell, c.RoundsRun, rep1.RoundsRun)
		}
	}
	if clients != cfg.Clients {
		t.Fatalf("router lost clients: %d != %d", clients, cfg.Clients)
	}
	if shares != cfg.ActivePerRound {
		t.Fatalf("shares %d != active quota %d", shares, cfg.ActivePerRound)
	}
	// Skewed regions must produce skewed populations, largest first region.
	if !(det1.Cells[0].Clients > det1.Cells[3].Clients) {
		t.Fatalf("region skew not reflected: %+v", det1.Cells)
	}
	if det1.CrossCellBytes == 0 {
		t.Fatal("no cross-cell traffic recorded")
	}
	// The cross-cell tier costs real simulated time: a federated run is
	// slower than the single-cluster run of the same workload.
	plain, err := core.Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.TimeToTarget <= plain.TimeToTarget {
		t.Fatalf("federation was free: fabric tta %v <= plain tta %v", rep1.TimeToTarget, plain.TimeToTarget)
	}
}

// Quorum policy under an outage: the dead cell is detected by heartbeat,
// its partial round is discarded (the lost share visibly slows the
// accuracy credit), its clients re-route to the survivors, and the run
// converges at a measurable time-to-accuracy penalty against the healthy
// fabric — the quantity the cell-outage scenario compares across the two
// policies.
func TestFabricQuorumOutage(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxRounds = 160
	healthy := cfg
	healthy.Cells = &core.CellSpec{Count: 4, Quorum: 3}
	base, _, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.CellSpec{Count: 4, Quorum: 3, OutageRound: 20, OutageCell: 1}
	cfg.Cells = &spec
	rep, det, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Reached || !rep.Reached {
		t.Fatalf("reached: healthy %v outage %v (rounds %d)", base.Reached, rep.Reached, rep.RoundsRun)
	}
	// The discarded partial round costs real credit: the outage round's
	// accuracy must fall behind the healthy run's and the run must take
	// longer to the target.
	or, br := spec.OutageRound-1, spec.OutageRound-1
	if rep.Acc[or].Accuracy >= base.Acc[br].Accuracy {
		t.Fatalf("discarded round cost no credit: outage acc %v >= healthy %v",
			rep.Acc[or].Accuracy, base.Acc[br].Accuracy)
	}
	if rep.TimeToTarget <= base.TimeToTarget {
		t.Fatalf("quorum outage was free: %v <= healthy %v", rep.TimeToTarget, base.TimeToTarget)
	}
	c := det.Cells[1]
	if !c.Dead || c.DiedRound != 20 || c.RestoredRound != 0 {
		t.Fatalf("outage cell state wrong: %+v", c)
	}
	if c.Clients != 0 || c.ActivePerRound != 0 {
		t.Fatalf("dead cell kept load: %+v", c)
	}
	if c.RoundsDiscarded != 1 || det.CellRoundsDiscarded != 1 {
		t.Fatalf("partial round not discarded: %+v", c)
	}
	if det.OutageDetectedAt == 0 {
		t.Fatal("outage never detected")
	}
	if det.ReRoutedClients == 0 {
		t.Fatal("no clients re-routed")
	}
	reclients, shares := 0, 0
	for _, cr := range det.Cells {
		reclients += cr.Clients
		shares += cr.ActivePerRound
	}
	if reclients != cfg.Clients {
		t.Fatalf("re-route lost clients: %d != %d", reclients, cfg.Clients)
	}
	if shares != cfg.ActivePerRound {
		t.Fatalf("re-apportioned shares %d != quota %d", shares, cfg.ActivePerRound)
	}
	// The two policies pay their penalties in different places: wait-all
	// concentrates its whole cost in the blocked round (detection +
	// checkpoint fetch + cold restart + replay), while quorum masking
	// spreads a smaller per-round cost after the reroute. The outage
	// round itself must therefore be far longer under wait-all.
	wcfg := cfg
	wspec := spec
	wspec.Quorum = 0
	wcfg.Cells = &wspec
	wrep, _, err := Run(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !wrep.Reached {
		t.Fatal("wait-all outage run did not converge")
	}
	qr := rep.Rounds[spec.OutageRound-1]
	wr := wrep.Rounds[spec.OutageRound-1]
	if qs, ws := qr.End-qr.Start, wr.End-wr.Start; qs >= ws {
		t.Fatalf("quorum did not mask the blocked round: quorum span %v >= wait-all span %v", qs, ws)
	}
}

// Wait-all policy under an outage: the fabric blocks the round, restores a
// replacement from the cell's last durable checkpoint (written mid-run,
// while rounds kept loading the store — the Appendix B path), replays the
// interrupted round, and the resumed run's tail matches an uninterrupted
// run round for round.
func TestFabricWaitAllRestoreUnderLoad(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxRounds = 110
	cfg.Cells = &core.CellSpec{Count: 3}
	base, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ocfg := cfg
	spec := *cfg.Cells
	spec.OutageRound = 25 // after the round-20 checkpoint, mid-period
	spec.OutageCell = 2
	ocfg.Cells = &spec
	rep, det, err := Run(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Reached || !rep.Reached {
		t.Fatalf("reached: base %v outage %v", base.Reached, rep.Reached)
	}
	c := det.Cells[2]
	if c.Dead {
		t.Fatalf("wait-all cell stayed dead: %+v", c)
	}
	if c.DiedRound != 25 || c.RestoredRound != 25 {
		t.Fatalf("restore rounds wrong: %+v", c)
	}
	if c.Checkpoints == 0 {
		t.Fatal("cell never checkpointed; restore had nothing to round-trip")
	}
	if det.ReRoutedClients != 0 {
		t.Fatal("wait-all must keep clients homed on the restored cell")
	}
	// Full participation resumes after the replay: the accuracy trajectory
	// (a pure function of folded shares) must match the uninterrupted run
	// point for point, so both runs take the same number of rounds...
	if base.RoundsRun != rep.RoundsRun {
		t.Fatalf("rounds diverged: base %d outage %d", base.RoundsRun, rep.RoundsRun)
	}
	for i := range base.Acc {
		if base.Acc[i].Accuracy != rep.Acc[i].Accuracy {
			t.Fatalf("tail accuracy diverged at round %d: %v vs %v", base.Acc[i].Round, base.Acc[i].Accuracy, rep.Acc[i].Accuracy)
		}
		if base.Rounds[i].Updates != rep.Rounds[i].Updates {
			t.Fatalf("tail updates diverged at round %d: %d vs %d", i+1, base.Rounds[i].Updates, rep.Rounds[i].Updates)
		}
	}
	// ...while the detection + checkpoint fetch + cold restart + replay all
	// cost simulated time: the interrupted round is visibly longer.
	or := rep.Rounds[spec.OutageRound-1]
	br := base.Rounds[spec.OutageRound-1]
	if or.End-or.Start <= br.End-br.Start {
		t.Fatalf("restore was free: outage round span %v <= healthy %v", or.End-or.Start, br.End-br.Start)
	}
	if rep.TimeToTarget <= base.TimeToTarget {
		t.Fatalf("outage was free: %v <= %v", rep.TimeToTarget, base.TimeToTarget)
	}
}

// Construction-time validation: the fabric rejects what it cannot
// federate, and core.Run refuses to silently ignore a cell config.
func TestFabricValidation(t *testing.T) {
	cfg := baseCfg()
	cfg.Cells = &core.CellSpec{Count: 2}
	if _, err := core.Run(cfg); err == nil || !strings.Contains(err.Error(), "internal/cell") {
		t.Fatalf("core.Run accepted a cell config: %v", err)
	}
	bad := []core.CellSpec{
		{Count: 0},
		{Count: 2, Regions: []float64{1}},
		{Count: 2, Regions: []float64{0, 0}},
		{Count: 2, Quorum: 3},
		{Count: 1, OutageRound: 5},
		{Count: 2, OutageRound: 5, OutageCell: 2},
		{Count: 2, OutageRound: 5, OutageCell: 0, Quorum: 2},
	}
	for i, spec := range bad {
		s := spec
		c := baseCfg()
		c.Cells = &s
		if _, _, err := Run(c); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
	// Hand-built Params without the inter-cell fields must be refused, not
	// divided by.
	zcfg := baseCfg()
	zcfg.Params = costmodel.Default()
	zcfg.Params.InterCellBandwidth = 0
	zcfg.Cells = &core.CellSpec{Count: 2}
	if _, _, err := Run(zcfg); err == nil || !strings.Contains(err.Error(), "bandwidth") {
		t.Fatalf("zero inter-cell bandwidth accepted: %v", err)
	}
	acfg := baseCfg()
	acfg.System = core.SystemAsync
	acfg.Cells = &core.CellSpec{Count: 2}
	if _, _, err := Run(acfg); err == nil {
		t.Fatal("async cells accepted")
	}
	icfg := baseCfg()
	icfg.Clients = 0
	icfg.Inject = &core.InjectSpec{Updates: 10}
	icfg.Cells = &core.CellSpec{Count: 2}
	if _, _, err := Run(icfg); err == nil {
		t.Fatal("injected cells accepted")
	}
}

// apportion is the fabric's share arithmetic; its sums must be exact.
func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{120, []float64{1, 1, 1, 1}, []int{30, 30, 30, 30}},
		{10, []float64{3, 1}, []int{8, 2}}, // 7.5/2.5 → remainders tie-break by index? no: .5 vs .5 → index order
		{7, []float64{1, 1, 1}, []int{3, 2, 2}},
		{5, []float64{0, 1}, []int{0, 5}},
		{0, []float64{1, 2}, []int{0, 0}},
	}
	for i, c := range cases {
		got := apportion(c.total, c.weights)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: apportion(%d, %v) = %v, want %v", i, c.total, c.weights, got, c.want)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		if c.total > 0 && sum != c.total {
			t.Fatalf("case %d: shares sum %d != %d", i, sum, c.total)
		}
	}
}

// Wait-all restore at the edge of the retention window: with the default
// RetainRounds the cells have long since retired the control-plane records
// of the round that wrote the last checkpoint (round 20 under the default
// 10-round period) by the time the outage hits at round 29 — yet the
// restore must still replay from that checkpoint, because the store's
// retirement always pins the newest snapshot. And since retirement is pure
// bookkeeping, the interrupted run must be byte-identical whether the
// cells retire aggressively or not at all.
func TestFabricRestorePastRetentionWindow(t *testing.T) {
	cfg := baseCfg()
	cfg.MaxRounds = 110
	spec := core.CellSpec{Count: 3, OutageRound: 29, OutageCell: 1}
	cfg.Cells = &spec

	run := func(retain int) (*core.Report, *Detail) {
		c := cfg
		c.RetainRounds = retain
		rep, det, err := Run(c)
		if err != nil {
			t.Fatalf("retain=%d: %v", retain, err)
		}
		stripWall(rep)
		return rep, det
	}

	rep, det := run(core.DefaultRetainRounds)
	c := det.Cells[1]
	if c.Dead {
		t.Fatalf("wait-all cell stayed dead: %+v", c)
	}
	if c.DiedRound != 29 || c.RestoredRound != 29 {
		t.Fatalf("restore rounds wrong: %+v", c)
	}
	if c.Checkpoints == 0 {
		t.Fatal("cell never checkpointed; restore had nothing to round-trip")
	}
	if !rep.Reached {
		t.Fatalf("restored run did not reach target in %d rounds", rep.RoundsRun)
	}

	repOff, detOff := run(-1)
	if !reflect.DeepEqual(rep, repOff) || !reflect.DeepEqual(det, detOff) {
		t.Fatalf("restore diverged across retention windows: retain=%d rounds=%d tta=%v vs retain=-1 rounds=%d tta=%v",
			core.DefaultRetainRounds, rep.RoundsRun, rep.TimeToTarget, repOff.RoundsRun, repOff.TimeToTarget)
	}
}
