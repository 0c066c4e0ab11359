package fedavg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ErrEmpty is returned when a result is requested before any accumulation.
var ErrEmpty = errors.New("fedavg: no updates accumulated")

// Algorithm constructs fresh accumulator states.
type Algorithm interface {
	Name() string
	// NewState returns an empty accumulator for vectors with the given
	// physical and virtual lengths.
	NewState(phys, virtual int) State
}

// State is a cumulative aggregation accumulator.
type State interface {
	// Accumulate folds one (update, weight) pair in. Weight must be
	// positive; for client updates it is the sample count c_k, for
	// intermediate updates the child's total weight.
	Accumulate(t *tensor.Tensor, weight float64) error
	// Result returns the aggregate so far and its total weight. The
	// returned tensor is owned by the caller (safe to publish immutably).
	Result() (*tensor.Tensor, float64, error)
	// ResultInto is Result written into dst instead of a new tensor: dst
	// must have the state's physical length, and nothing may still read
	// it. It returns the total weight.
	ResultInto(dst *tensor.Tensor) (float64, error)
	// Count returns how many updates have been folded in.
	Count() int
	// Reset clears the accumulator for reuse in the next round.
	Reset()
}

// FedAvg is the weighted-averaging algorithm of the paper's evaluation.
type FedAvg struct {
	// Workers bounds the goroutine pool each state's fold may use (<= 1,
	// the zero value, keeps folds serial). Results are bit-identical for
	// any value — the accumulator shards on fixed element boundaries
	// (tensor/parallel.go), never re-associating the float64 sums.
	Workers int
}

// Name implements Algorithm.
func (FedAvg) Name() string { return "fedavg" }

// NewState implements Algorithm.
func (f FedAvg) NewState(phys, virtual int) State {
	acc := tensor.NewAccumulator(phys)
	acc.SetWorkers(f.Workers)
	return &fedAvgState{
		acc:     acc,
		phys:    phys,
		virtual: virtual,
	}
}

// fedAvgState delegates the arithmetic to tensor.Accumulator — the shared
// Clone-avoiding eager accumulate path (float64 running sums, divide once
// at Result) — and adds the tensor geometry plus the fedavg error contract.
type fedAvgState struct {
	acc     *tensor.Accumulator
	phys    int
	virtual int
}

func (s *fedAvgState) Accumulate(t *tensor.Tensor, weight float64) error {
	if t.Len() != s.phys {
		return fmt.Errorf("%w: update len %d, accumulator len %d", tensor.ErrShape, t.Len(), s.phys)
	}
	if weight <= 0 {
		return fmt.Errorf("fedavg: non-positive weight %v", weight)
	}
	return s.acc.Add(t, weight)
}

func (s *fedAvgState) Result() (*tensor.Tensor, float64, error) {
	if s.acc.Count() == 0 {
		return nil, 0, ErrEmpty
	}
	out := tensor.NewVirtual(s.phys, s.virtual)
	total, err := s.ResultInto(out)
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

func (s *fedAvgState) ResultInto(dst *tensor.Tensor) (float64, error) {
	if s.acc.Count() == 0 {
		return 0, ErrEmpty
	}
	if err := s.acc.MeanInto(dst); err != nil {
		return 0, err
	}
	dst.VirtualLen = max(s.virtual, s.phys)
	return s.acc.Total(), nil
}

func (s *fedAvgState) Count() int { return s.acc.Count() }

func (s *fedAvgState) Reset() { s.acc.Reset() }

// ServerOpt post-processes the aggregated update into the next global model.
// FedAvg simply adopts the aggregate; adaptive server optimizers (Reddi et
// al., 2020) treat (global − aggregate) as a pseudo-gradient. These are the
// "FL algorithm" extension point the paper calls orthogonal to LIFL (§7).
type ServerOpt interface {
	Name() string
	// Apply returns the next global model given the previous one and the
	// round's aggregate. Implementations must not mutate their inputs.
	Apply(global, aggregate *tensor.Tensor) (*tensor.Tensor, error)
}

// Adopt is plain FedAvg: the aggregate becomes the global model.
type Adopt struct{}

// Name implements ServerOpt.
func (Adopt) Name() string { return "adopt" }

// Apply implements ServerOpt.
func (Adopt) Apply(_, aggregate *tensor.Tensor) (*tensor.Tensor, error) {
	return aggregate.Clone(), nil
}

// FedAvgM is server momentum (Hsu et al., 2019; Reddi et al., 2020): the
// round's pseudo-gradient Δ = aggregate − global folds into a velocity
// v ← β·v + Δ, and the server steps w ← w + η·v. Both updates run on the
// fused tensor.ScaleAdd sweep, so the install path costs two passes over
// the parameter vector and one allocation (the returned model) per round.
//
// The velocity is per-training-run state: a FedAvgM instance belongs to
// exactly one run. Reusing one across runs warm-starts the second run's
// momentum (breaking fixed-seed repeatability), and sharing one between
// concurrent runs races on v — allocate a fresh instance per run, as
// scenario expansion does for its ServerMomentum knob.
type FedAvgM struct {
	Beta float64 // momentum coefficient β (default 0.9)
	LR   float64 // server learning rate η (default 1.0)
	v    *tensor.Tensor
}

// Name implements ServerOpt.
func (o *FedAvgM) Name() string { return "fedavgm" }

// Apply implements ServerOpt.
func (o *FedAvgM) Apply(global, aggregate *tensor.Tensor) (*tensor.Tensor, error) {
	if global.Len() != aggregate.Len() {
		return nil, fmt.Errorf("%w: global %d vs aggregate %d", tensor.ErrShape, global.Len(), aggregate.Len())
	}
	if o.Beta == 0 {
		o.Beta = 0.9
	}
	if o.LR == 0 {
		o.LR = 1.0
	}
	if o.v == nil {
		o.v = tensor.NewVirtual(global.Len(), global.VirtualLen)
	}
	// v = β·v + Δ, computed as v = β·v + (aggregate − global) in two fused
	// sweeps: fold the aggregate in, then cancel the global.
	if err := o.v.ScaleAdd(float32(o.Beta), 1, aggregate); err != nil {
		return nil, err
	}
	if err := o.v.AddScaled(-1, global); err != nil {
		return nil, err
	}
	// w = w + η·v without mutating the caller's global.
	out := global.Clone()
	if err := out.ScaleAdd(1, float32(o.LR), o.v); err != nil {
		return nil, err
	}
	return out, nil
}

// FedAdagrad is an adaptive server optimizer: accumulates squared
// pseudo-gradients and scales the server step (Reddi et al., 2020).
type FedAdagrad struct {
	LR  float64 // server learning rate η
	Tau float64 // adaptivity floor τ
	v   []float64
}

// Name implements ServerOpt.
func (o *FedAdagrad) Name() string { return "fedadagrad" }

// Apply implements ServerOpt.
func (o *FedAdagrad) Apply(global, aggregate *tensor.Tensor) (*tensor.Tensor, error) {
	if global.Len() != aggregate.Len() {
		return nil, fmt.Errorf("%w: global %d vs aggregate %d", tensor.ErrShape, global.Len(), aggregate.Len())
	}
	if o.LR == 0 {
		o.LR = 0.1
	}
	if o.Tau == 0 {
		o.Tau = 1e-3
	}
	if o.v == nil {
		o.v = make([]float64, global.Len())
	}
	out := global.Clone()
	for i := range out.Data {
		// Pseudo-gradient Δ = aggregate − global.
		d := float64(aggregate.Data[i]) - float64(global.Data[i])
		o.v[i] += d * d
		out.Data[i] += float32(o.LR * d / (math.Sqrt(o.v[i]) + o.Tau))
	}
	return out, nil
}
