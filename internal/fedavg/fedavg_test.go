package fedavg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestFedAvgMatchesReferenceWeightedMean(t *testing.T) {
	alg := FedAvg{}
	st := alg.NewState(3, 3)
	xs := []*tensor.Tensor{
		tensor.FromSlice([]float32{1, 2, 3}),
		tensor.FromSlice([]float32{4, 5, 6}),
		tensor.FromSlice([]float32{7, 8, 9}),
	}
	ws := []float64{1, 2, 3}
	for i, x := range xs {
		if err := st.Accumulate(x, ws[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, total, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total weight = %v", total)
	}
	want, _ := tensor.WeightedMean(xs, ws)
	d, _ := got.MaxAbsDiff(want)
	if d > 1e-5 {
		t.Fatalf("cumulative != batch: diff %v", d)
	}
	if st.Count() != 3 {
		t.Fatalf("count = %d", st.Count())
	}
}

func TestFedAvgEmptyAndReset(t *testing.T) {
	st := FedAvg{}.NewState(2, 2)
	if _, _, err := st.Result(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty result: %v", err)
	}
	_ = st.Accumulate(tensor.FromSlice([]float32{2, 2}), 1)
	st.Reset()
	if st.Count() != 0 {
		t.Fatal("reset did not clear count")
	}
	if _, _, err := st.Result(); !errors.Is(err, ErrEmpty) {
		t.Fatal("reset state must be empty")
	}
	// Reuse after reset must be exact.
	_ = st.Accumulate(tensor.FromSlice([]float32{5, 7}), 2)
	got, total, err := st.Result()
	if err != nil || total != 2 {
		t.Fatalf("after reset: %v %v", total, err)
	}
	if got.Data[0] != 5 || got.Data[1] != 7 {
		t.Fatalf("stale state leaked: %v", got.Data)
	}
}

// ResultInto is Result written over a recycled tensor: the same bits and
// geometry whatever the tensor held, and the same error contract.
func TestFedAvgResultIntoMatchesResult(t *testing.T) {
	st := FedAvg{}.NewState(3, 96)
	dst := tensor.FromSlice([]float32{9, 9, 9})
	if _, err := st.ResultInto(dst); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty ResultInto: %v", err)
	}
	_ = st.Accumulate(tensor.FromSlice([]float32{1, 2, 3}), 3)
	_ = st.Accumulate(tensor.FromSlice([]float32{0.1, 0.7, -4}), 5)
	want, wantTotal, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	total, err := st.ResultInto(dst)
	if err != nil || total != wantTotal {
		t.Fatalf("ResultInto total %v, %v; want %v", total, err, wantTotal)
	}
	if dst.VirtualLen != want.VirtualLen {
		t.Fatalf("virtual len %d, want %d", dst.VirtualLen, want.VirtualLen)
	}
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
	if _, err := st.ResultInto(tensor.New(2)); err == nil {
		t.Fatal("ResultInto accepted a tensor of the wrong length")
	}
}

func TestFedAvgRejectsBadInput(t *testing.T) {
	st := FedAvg{}.NewState(2, 2)
	if err := st.Accumulate(tensor.New(3), 1); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := st.Accumulate(tensor.New(2), 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := st.Accumulate(tensor.New(2), -1); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// The paper's hierarchical-correctness property: aggregating intermediates
// weighted by their total weights reproduces the flat weighted mean exactly
// (this is what makes leaf→middle→top FedAvg correct, §2.2 + Eq. (1)).
func TestHierarchicalEquivalence(t *testing.T) {
	f := func(vals [6][4]int8, wsRaw [6]uint8, split uint8) bool {
		alg := FedAvg{}
		xs := make([]*tensor.Tensor, 6)
		ws := make([]float64, 6)
		for k := range xs {
			d := make([]float32, 4)
			for i := range d {
				d[i] = float32(vals[k][i]) / 4
			}
			xs[k] = tensor.FromSlice(d)
			ws[k] = float64(wsRaw[k]%9) + 1
		}
		// Flat aggregation.
		flat := alg.NewState(4, 4)
		for k := range xs {
			if err := flat.Accumulate(xs[k], ws[k]); err != nil {
				return false
			}
		}
		flatRes, flatTotal, err := flat.Result()
		if err != nil {
			return false
		}
		// Two leaves split at s, then a parent aggregates the intermediates
		// weighted by their totals.
		s := int(split%5) + 1 // 1..5
		leafA, leafB := alg.NewState(4, 4), alg.NewState(4, 4)
		for k := range xs {
			st := leafA
			if k >= s {
				st = leafB
			}
			if err := st.Accumulate(xs[k], ws[k]); err != nil {
				return false
			}
		}
		parent := alg.NewState(4, 4)
		for _, leaf := range []State{leafA, leafB} {
			if leaf.Count() == 0 {
				continue
			}
			res, total, err := leaf.Result()
			if err != nil {
				return false
			}
			if err := parent.Accumulate(res, total); err != nil {
				return false
			}
		}
		hierRes, hierTotal, err := parent.Result()
		if err != nil {
			return false
		}
		if math.Abs(hierTotal-flatTotal) > 1e-9 {
			return false
		}
		d, err := hierRes.MaxAbsDiff(flatRes)
		return err == nil && d < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: accumulation order does not change the result (commutativity).
func TestAccumulationOrderInvariance(t *testing.T) {
	f := func(vals [5][3]int8, wsRaw [5]uint8, perm uint8) bool {
		alg := FedAvg{}
		n := 5
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Simple deterministic shuffle from perm.
		for i := n - 1; i > 0; i-- {
			j := int(perm) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		build := func(idx []int) *tensor.Tensor {
			st := alg.NewState(3, 3)
			for _, k := range idx {
				d := make([]float32, 3)
				for i := range d {
					d[i] = float32(vals[k][i])
				}
				if err := st.Accumulate(tensor.FromSlice(d), float64(wsRaw[k]%7)+1); err != nil {
					return nil
				}
			}
			res, _, err := st.Result()
			if err != nil {
				return nil
			}
			return res
		}
		a := build([]int{0, 1, 2, 3, 4})
		b := build(order)
		if a == nil || b == nil {
			return false
		}
		d, err := a.MaxAbsDiff(b)
		return err == nil && d < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdoptServerOpt(t *testing.T) {
	g := tensor.FromSlice([]float32{1, 1})
	agg := tensor.FromSlice([]float32{5, 6})
	next, err := Adopt{}.Apply(g, agg)
	if err != nil {
		t.Fatal(err)
	}
	if next.Data[0] != 5 || next.Data[1] != 6 {
		t.Fatalf("adopt = %v", next.Data)
	}
	next.Data[0] = 99
	if agg.Data[0] != 5 {
		t.Fatal("Adopt must not alias the aggregate")
	}
}

func TestFedAdagradMovesTowardAggregate(t *testing.T) {
	o := &FedAdagrad{LR: 0.5, Tau: 1e-3}
	g := tensor.FromSlice([]float32{0, 0})
	agg := tensor.FromSlice([]float32{1, -1})
	prevDist := math.Inf(1)
	for i := 0; i < 20; i++ {
		next, err := o.Apply(g, agg)
		if err != nil {
			t.Fatal(err)
		}
		diff := next.Clone()
		if err := diff.Sub(agg); err != nil {
			t.Fatal(err)
		}
		dist := diff.Norm2()
		if dist >= prevDist {
			t.Fatalf("step %d: distance %v did not shrink from %v", i, dist, prevDist)
		}
		prevDist = dist
		g = next
	}
	if prevDist > 1.0 {
		t.Fatalf("did not approach the aggregate: %v", prevDist)
	}
}

func TestFedAdagradShapeError(t *testing.T) {
	o := &FedAdagrad{}
	if _, err := o.Apply(tensor.New(2), tensor.New(3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// With no momentum memory (β→0 via a first step) and η=1, FedAvgM's first
// step is w + (agg − w) = agg: plain adoption.
func TestFedAvgMFirstStepAdopts(t *testing.T) {
	o := &FedAvgM{Beta: 0.5, LR: 1}
	g := tensor.FromSlice([]float32{1, 2})
	agg := tensor.FromSlice([]float32{5, -6})
	next, err := o.Apply(g, agg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := next.MaxAbsDiff(agg)
	if err != nil || d > 1e-6 {
		t.Fatalf("first FedAvgM step = %v, want the aggregate (d=%v err=%v)", next.Data, d, err)
	}
	if g.Data[0] != 1 || agg.Data[0] != 5 {
		t.Fatal("Apply mutated its inputs")
	}
}

// A repeated pseudo-gradient must compound: with β=0.5 the second step's
// velocity is 1.5×Δ, so FedAvgM overshoots where Adopt would land.
func TestFedAvgMAccumulatesMomentum(t *testing.T) {
	o := &FedAvgM{Beta: 0.5, LR: 1}
	g := tensor.FromSlice([]float32{0})
	step1, err := o.Apply(g, tensor.FromSlice([]float32{1}))
	if err != nil {
		t.Fatal(err)
	}
	if step1.Data[0] != 1 {
		t.Fatalf("step1 = %v, want 1", step1.Data[0])
	}
	// Aggregate again one unit ahead of the new global: Δ = 1 once more,
	// v = 0.5·1 + 1 = 1.5, so w = 1 + 1.5 = 2.5.
	step2, err := o.Apply(step1, tensor.FromSlice([]float32{2}))
	if err != nil {
		t.Fatal(err)
	}
	if step2.Data[0] != 2.5 {
		t.Fatalf("step2 = %v, want 2.5 (momentum not accumulated)", step2.Data[0])
	}
}

func TestFedAvgMShapeError(t *testing.T) {
	o := &FedAvgM{}
	if _, err := o.Apply(tensor.New(2), tensor.New(3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// BenchmarkFedAvgMApply times the ScaleAdd-fused model-install path at the
// ResNet-18 physical vector size — the per-round cost a momentum-enabled
// workload adds over plain adoption.
func BenchmarkFedAvgMApply(b *testing.B) {
	const n = 1 << 16
	o := &FedAvgM{Beta: 0.9, LR: 1}
	g := tensor.New(n)
	agg := tensor.New(n)
	for i := range agg.Data {
		agg.Data[i] = float32(i%13) * 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := o.Apply(g, agg)
		if err != nil {
			b.Fatal(err)
		}
		g = next
	}
}
