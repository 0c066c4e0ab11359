package costmodel

import (
	"testing"

	"repro/internal/sim"
)

// r152 is the calibration payload (~232 MiB).
const r152 = uint64(60_817_408 * 4)

func TestCyclesRoundTrip(t *testing.T) {
	d := Cycles(2.8e9)
	if d != sim.Second {
		t.Fatalf("2.8G cycles = %v, want 1s at 2.8GHz", d)
	}
	if got := CyclesOf(d); got < 2.79e9 || got > 2.81e9 {
		t.Fatalf("round trip = %v", got)
	}
}

// The calibration targets of Fig. 7(a): LIFL 0.76 s, SF ≈ 3×, SL ≈ 5.8×
// for a ResNet-152 transfer.
func TestFig7LatencyCalibration(t *testing.T) {
	p := Default()
	shm, _ := p.ShmWrite(r152)
	lifl := shm + p.ShmKeyPassLatency
	if lifl < 700*sim.Millisecond || lifl > 820*sim.Millisecond {
		t.Fatalf("LIFL transfer = %v, want ≈0.76s", lifl)
	}
	ser, _ := p.Serialize(r152, 1)
	tx, _ := p.KernelTraversal(r152)
	des, _ := p.Deserialize(r152, 1)
	sf := ser + 2*tx + des
	if r := float64(sf) / float64(lifl); r < 2.6 || r > 3.4 {
		t.Fatalf("SF/LIFL = %.2f, want ≈3", r)
	}
	sc, _ := p.SidecarHop(r152)
	mb, _ := p.BrokerHop(r152)
	sl := sf + 2*sc + mb
	if r := float64(sl) / float64(lifl); r < 5.3 || r > 6.4 {
		t.Fatalf("SL/LIFL = %.2f, want ≈5.8", r)
	}
}

// Fig. 7(b): LIFL CPU ≈ 2.45 Gcycles for ResNet-152.
func TestFig7CPUCalibration(t *testing.T) {
	p := Default()
	_, cpu := p.ShmWrite(r152)
	g := CyclesOf(cpu) / 1e9
	if g < 2.3 || g > 2.6 {
		t.Fatalf("LIFL CPU = %.2f Gcycles, want ≈2.45", g)
	}
}

// §6.1: a cross-node ResNet-152 transfer ≈ 4.2 s on the 10 GbE testbed.
func TestCrossNodeCalibration(t *testing.T) {
	p := Default()
	shm, _ := p.ShmWrite(r152)
	ser, _ := p.Serialize(r152, 1)
	tx, _ := p.KernelTraversal(r152)
	des, _ := p.Deserialize(r152, 1)
	total := shm + ser + tx + p.WireTime(r152) + 2*p.NICLatency + tx + des + shm
	if total < 3500*sim.Millisecond || total > 4700*sim.Millisecond {
		t.Fatalf("cross-node transfer = %v, want ≈4.2s", total)
	}
}

func TestWireTimeMatchesNIC(t *testing.T) {
	p := Default()
	// 10 Gb/s = 1.25 GB/s: 1.25 GB should take one second.
	if got := p.WireTime(1_250_000_000); got < 990*sim.Millisecond || got > 1010*sim.Millisecond {
		t.Fatalf("wire time = %v", got)
	}
}

func TestEvalTimeScalesWithModel(t *testing.T) {
	p := Default()
	small := p.EvalTime(1 << 30)
	big := p.EvalTime(2 << 30)
	if big != 2*small {
		t.Fatalf("eval not linear: %v vs %v", small, big)
	}
}

func TestAggregateOneLinear(t *testing.T) {
	p := Default()
	got := p.AggregateOne(2 * r152)
	want := 2 * p.AggregateOne(r152)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Microsecond {
		t.Fatalf("aggregation cost not linear in bytes: %v vs %v", got, want)
	}
}

func TestSerializePerTensorOverhead(t *testing.T) {
	p := Default()
	few, _ := p.Serialize(1000, 1)
	many, _ := p.Serialize(1000, 100)
	if many <= few {
		t.Fatal("per-tensor overhead missing")
	}
}

func TestDefaultsSane(t *testing.T) {
	p := Default()
	if p.CoresPerNode != 64 {
		t.Errorf("cores = %d, testbed has 64", p.CoresPerNode)
	}
	if p.MemPerNode != 192<<30 {
		t.Errorf("memory = %d, testbed has 192GB", p.MemPerNode)
	}
	if p.LeafFanIn != 2 {
		t.Errorf("leaf fan-in = %d, paper uses I=2", p.LeafFanIn)
	}
	if p.QueueStagesSFMono != 1 || p.QueueStagesLIFL != 1 ||
		p.QueueStagesSFMicro != 2 || p.QueueStagesSLB != 3 {
		t.Errorf("queue stage multipliers wrong: %d/%d/%d/%d",
			p.QueueStagesSFMono, p.QueueStagesLIFL, p.QueueStagesSFMicro, p.QueueStagesSLB)
	}
}
