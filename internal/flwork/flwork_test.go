package flwork

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func pop(class ClientClass, n int) *Population {
	eng := sim.NewEngine()
	m := model.ResNet18
	if class == Server {
		m = model.ResNet152
	}
	return NewPopulation(eng, Config{NumClients: n, Model: m, Class: class, Seed: 5})
}

func TestPopulationDeterministic(t *testing.T) {
	a, b := pop(Mobile, 100), pop(Mobile, 100)
	for i := 0; i < a.Len(); i++ {
		if a.Client(i).Samples != b.Client(i).Samples || a.Client(i).Speed != b.Client(i).Speed {
			t.Fatal("same seed diverged")
		}
	}
}

// TestPopulationWorkersBitIdentical pins the two-phase synthesis contract:
// the worker count changes only who runs the pure transform phase, never
// the values — the draws themselves stay serial and in legacy order.
func TestPopulationWorkersBitIdentical(t *testing.T) {
	// Enough clients to span several storage chunks.
	n := 3*clientChunkSize + 117
	if testing.Short() {
		n = clientChunkSize + 117
	}
	mk := func(workers int) *Population {
		return NewPopulation(sim.NewEngine(), Config{
			NumClients: n, Model: model.ResNet18, Class: Mobile, Seed: 5, Workers: workers,
		})
	}
	ref := mk(1)
	for _, w := range []int{2, 3, 8} {
		p := mk(w)
		for i := 0; i < n; i++ {
			a, b := ref.Client(i), p.Client(i)
			if a.Samples != b.Samples || a.Speed != b.Speed || a.LabelSkew != b.LabelSkew {
				t.Fatalf("workers=%d: client %d differs: %+v vs %+v", w, i, *a, *b)
			}
		}
	}
}

func TestClientIDFormat(t *testing.T) {
	p := pop(Mobile, 10)
	if got := p.ClientID(7); got != "client-0007" {
		t.Fatalf("ClientID(7) = %q", got)
	}
	if got := p.ClientID(123456); got != "client-123456" {
		t.Fatalf("ClientID(123456) = %q", got)
	}
	for i := 0; i < 20_000; i++ {
		if got, want := p.ClientID(i), fmt.Sprintf("client-%04d", i); got != want {
			t.Fatalf("ClientID(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestSampleCountsHeavyTailed(t *testing.T) {
	p := pop(Mobile, 2800)
	lo, hi := 1<<30, 0
	for i := 0; i < p.Len(); i++ {
		c := p.Client(i)
		if c.Samples <= 0 {
			t.Fatalf("client %d has %d samples", i, c.Samples)
		}
		if c.Samples < lo {
			lo = c.Samples
		}
		if c.Samples > hi {
			hi = c.Samples
		}
	}
	if hi < 4*lo {
		t.Fatalf("no tail: min %d max %d", lo, hi)
	}
	if hi > 2000 {
		t.Fatalf("tail uncapped: %d", hi)
	}
}

func TestTrainTimesPositiveAndHeterogeneous(t *testing.T) {
	p := pop(Mobile, 200)
	seen := make(map[sim.Duration]bool)
	for i := 0; i < 50; i++ {
		d := p.TrainTime(p.Client(i))
		if d <= 0 {
			t.Fatalf("train time %v", d)
		}
		seen[d] = true
	}
	if len(seen) < 25 {
		t.Fatalf("train times too uniform: %d distinct of 50", len(seen))
	}
}

func TestHibernationOnlyForMobiles(t *testing.T) {
	mp := pop(Mobile, 10)
	sp := pop(Server, 10)
	anyPositive := false
	for i := 0; i < 100; i++ {
		if mp.Hibernation(mp.Client(0)) > 0 {
			anyPositive = true
		}
		if d := sp.Hibernation(sp.Client(0)); d != 0 {
			t.Fatalf("server client hibernated %v", d)
		}
	}
	if !anyPositive {
		t.Fatal("mobile hibernation never positive")
	}
	// Bounded by [0, 60s] per §6.2.
	for i := 0; i < 1000; i++ {
		if d := mp.Hibernation(mp.Client(0)); d >= 60*sim.Second {
			t.Fatalf("hibernation %v out of [0,60s)", d)
		}
	}
}

func TestLocalUpdatePerturbationDecays(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	early := p.LocalUpdate(p.Client(0), g, 1)
	late := p.LocalUpdate(p.Client(0), g, 100)
	if err := early.Sub(g); err != nil {
		t.Fatal(err)
	}
	if err := late.Sub(g); err != nil {
		t.Fatal(err)
	}
	if late.Norm2() >= early.Norm2() {
		t.Fatalf("perturbation did not decay: %v vs %v", late.Norm2(), early.Norm2())
	}
}

func TestLocalUpdateClientSpecific(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	a := p.LocalUpdate(p.Client(0), g, 1)
	b := p.LocalUpdate(p.Client(1), g, 1)
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("different clients produced identical updates")
	}
}

// TestLocalUpdateIntoMatchesLocalUpdate pins the arena-backed form to the
// allocating one bit for bit.
func TestLocalUpdateIntoMatchesLocalUpdate(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	for i := range g.Data {
		g.Data[i] = float32(i%13) * 0.03
	}
	want := p.LocalUpdate(p.Client(2), g, 7)
	got := model.ResNet18.NewTensor()
	got.Fill(99) // stale contents must be fully overwritten
	p.LocalUpdateInto(got, p.Client(2), g, 7)
	if got.VirtualLen != want.VirtualLen {
		t.Fatalf("virtual len %d vs %d", got.VirtualLen, want.VirtualLen)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestCurveCalibration(t *testing.T) {
	// The paper's workloads: ResNet-18 hits 70% near round 80 (0.9 h at
	// ≈40 s rounds), ResNet-152 near round 152 (1.9 h at ≈45 s).
	r18 := CurveFor(model.ResNet18).RoundsToAccuracy(0.70)
	if r18 < 70 || r18 > 90 {
		t.Fatalf("ResNet-18 rounds to 70%% = %d, want ≈80", r18)
	}
	r152 := CurveFor(model.ResNet152).RoundsToAccuracy(0.70)
	if r152 < 135 || r152 > 170 {
		t.Fatalf("ResNet-152 rounds to 70%% = %d, want ≈152", r152)
	}
}

func TestCurveSaturatesBelowAmax(t *testing.T) {
	c := CurveFor(model.ResNet34)
	if c.RoundsToAccuracy(c.Amax+0.05) != -1 {
		t.Fatal("curve exceeded its asymptote")
	}
	if c.At(0) > 0.1 {
		t.Fatalf("initial accuracy %v", c.At(0))
	}
}

// Property: accuracy is within (0,1) and the 0.70 crossing is unique-ish
// (once crossed with margin, it stays crossed).
func TestCurveCrossingStable(t *testing.T) {
	f := func(tauRaw uint8) bool {
		c := Curve{Amax: 0.8, Tau: float64(tauRaw%100) + 5}
		crossed := false
		for r := 1; r < 2000; r++ {
			a := c.At(r)
			if a <= 0 || a >= 1 {
				return false
			}
			if a >= 0.75 {
				crossed = true
			}
			if crossed && a < 0.70 {
				return false // fell back below after a clear crossing
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// perturbRef is the loop perturb replaced: one math.Sin per element. It is
// the reference TestPerturbMatchesMathSin holds the inlined kernel to.
func perturbRef(u *tensor.Tensor, c *Client, round int) {
	mag := 0.5 / math.Sqrt(float64(round)+1)
	phase := c.LabelSkew * 2 * math.Pi
	for i := range u.Data {
		g := math.Sin(float64(i)*0.01+phase) * mag
		u.Data[i] += float32(g)
	}
}

// The inlined kernel must reproduce the math.Sin loop bit for bit: every
// fixed-seed Report, trajectory and digest rests on the update values. The
// pairs are random (LabelSkew, round) draws over four ResNet-18 lengths of
// elements (so the argument runs past 2π·17), plus LabelSkew = 0 (the
// x = 0 element) and TinyFL's 64-element update.
func TestPerturbMatchesMathSin(t *testing.T) {
	pairs := 2000
	if testing.Short() {
		pairs = 200
	}
	rng := sim.NewRNG(25)
	base := tensor.New(4 * model.ResNet18.PhysLen())
	for i := range base.Data {
		base.Data[i] = float32(rng.NormFloat64())
	}
	p := &Population{}
	check := func(c Client, round, n int) {
		t.Helper()
		want := tensor.FromSlice(base.Data[:n])
		got := tensor.FromSlice(base.Data[:n])
		perturbRef(want, &c, round)
		p.perturb(got, &c, round)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("LabelSkew %v round %d element %d: %v, math.Sin gives %v",
					c.LabelSkew, round, i, got.Data[i], want.Data[i])
			}
		}
	}
	for k := 0; k < pairs; k++ {
		check(Client{LabelSkew: rng.Float64()}, rng.Intn(10_000), base.Len())
	}
	for _, round := range []int{0, 1, 7, 9999} {
		check(Client{}, round, base.Len())
		check(Client{LabelSkew: rng.Float64()}, round, model.TinyFL.PhysLen())
	}
}

// BenchmarkPerturb times one ResNet-18 local update's perturbation.
func BenchmarkPerturb(b *testing.B) {
	p := &Population{}
	u := model.ResNet18.NewTensor()
	c := Client{LabelSkew: 0.37}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.perturb(u, &c, i)
	}
}
