package flwork

import (
	"math"
	"strconv"

	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// ClientClass is the client archetype of §6.2.
type ClientClass int

// Client archetypes.
const (
	// Mobile clients share a physical host 8-ways, hibernate between
	// rounds, and train slowly (ResNet-18 setup).
	Mobile ClientClass = iota
	// Server clients own a machine and are always available (ResNet-152).
	Server
)

// Client is one member of the training population — value storage only
// (24 bytes): the archetype lives on the Population (one class per
// population) and the ID string is derived on demand (Population.ClientID),
// so a 10M-client population costs 10M × 24 B of live heap instead of 10M
// pointers, structs and ID strings.
type Client struct {
	Samples int // c_k, the FedAvg weight
	// Speed is a per-client compute multiplier (heterogeneity), ~LogNormal.
	Speed float64
	// LabelSkew in [0,1] parameterizes this client's data direction; used
	// to derive deterministic per-client update perturbations.
	LabelSkew float64
}

// Chunk geometry for the population's client storage: 1<<16 clients
// (1.5 MiB) per chunk. Chunked value slices keep the peak live heap flat —
// no append-doubling over a single 10M-element array, no per-client
// pointer or string allocations for the GC to trace.
const (
	clientChunkShift = 16
	clientChunkSize  = 1 << clientChunkShift
	clientChunkMask  = clientChunkSize - 1
)

// Population is the full client set plus workload parameters.
type Population struct {
	Model model.Spec
	Class ClientClass
	rng   *sim.RNG

	// chunks is the value-backed client storage; see Client and the chunk
	// geometry above. Index i lives at chunks[i>>shift][i&mask].
	chunks [][]Client
	n      int

	// HibernateMax bounds the mobile hibernation interval ([0,60] s).
	HibernateMax sim.Duration
	// BaseTrainTime is the median local-epoch duration on a dedicated host.
	BaseTrainTime sim.Duration
	// ShareFactor divides compute for mobile clients packed 8-per-host.
	ShareFactor float64
}

// Config creates a population.
type Config struct {
	NumClients int
	Model      model.Spec
	Class      ClientClass
	Seed       int64
	// Workers bounds the pool for the synthesis's parallel transform phase
	// (<= 1 = serial). The synthesized population is bit-identical for any
	// value: all RNG draws happen serially in the legacy order, and the
	// parallel phase applies only pure per-client transforms.
	Workers int
}

// NewPopulation synthesizes the client set. Sample counts follow the
// power-law FedScale reports for FEMNIST (most clients small, a heavy tail);
// speeds are log-normal around 1.
//
// Synthesis is two-phase so it parallelizes without touching the draw
// sequence: phase one consumes the RNG serially, client by client, in the
// exact legacy order (samples-uniform, speed-normal, skew-uniform — the
// normal draw's ziggurat consumes a variable number of underlying values,
// so the stream cannot be split); phase two applies the pure per-client
// transforms (math.Pow for the sample power law, math.Exp for the
// log-normal speed) across the worker pool. Same inputs, same operations,
// same per-client order ⇒ bit-identical to the legacy single loop.
func NewPopulation(eng *sim.Engine, cfg Config) *Population {
	rng := sim.NewRNG(cfg.Seed)
	p := &Population{
		Model:        cfg.Model,
		Class:        cfg.Class,
		rng:          rng,
		n:            cfg.NumClients,
		HibernateMax: 60 * sim.Second,
		ShareFactor:  8,
	}
	switch cfg.Class {
	case Mobile:
		// Local epoch (batch 32, lr 0.01) of ResNet-18 on a 1/8 share of a
		// host: tens of seconds.
		p.BaseTrainTime = 26 * sim.Second
	case Server:
		// ResNet-152 on a dedicated server node.
		p.BaseTrainTime = 22 * sim.Second
	}
	if cfg.NumClients <= 0 {
		return p
	}
	nchunks := (cfg.NumClients + clientChunkSize - 1) / clientChunkSize
	p.chunks = make([][]Client, nchunks)
	// Phase one (serial): the RNG draws, stashed raw in the client's own
	// fields so no scratch array scales with the population. The uniform
	// for the sample count parks its IEEE-754 bits in the Samples int
	// (values in [0,1) are non-negative and fit), the raw normal parks in
	// Speed, and the skew uniform is already its final value.
	for ci := range p.chunks {
		lo := ci << clientChunkShift
		size := cfg.NumClients - lo
		if size > clientChunkSize {
			size = clientChunkSize
		}
		chunk := make([]Client, size)
		for i := range chunk {
			chunk[i] = Client{
				Samples:   int(math.Float64bits(rng.Float64())),
				Speed:     rng.NormFloat64(),
				LabelSkew: rng.Float64(),
			}
		}
		p.chunks[ci] = chunk
	}
	// Phase two (parallel): pure transforms, chunk per task.
	par.Do(cfg.Workers, nchunks, func(ci int) {
		chunk := p.chunks[ci]
		for i := range chunk {
			c := &chunk[i]
			u := math.Float64frombits(uint64(c.Samples))
			samples := 30 + int(120*math.Pow(u, -0.45)) // power law tail
			if samples > 2_000 {
				samples = 2_000
			}
			c.Samples = samples
			// Speed = LogNormal(median 1, sigma 0.12) = 1.0·e^(0.12·N).
			c.Speed = 1.0 * math.Exp(0.12*c.Speed)
		}
	})
	return p
}

// Len returns the population size.
func (p *Population) Len() int { return p.n }

// Client returns client i's record. The pointer stays valid for the
// population's lifetime (chunks never reallocate), but records are shared —
// callers must not mutate them.
func (p *Population) Client(i int) *Client {
	return &p.chunks[i>>clientChunkShift][i&clientChunkMask]
}

// ClientID derives client i's wire identity on demand ("client-0042") —
// the legacy per-client ID string, minus 10M resident strings. It renders
// fmt's "client-%04d" for i >= 0 with one allocation, the string itself.
func (p *Population) ClientID(i int) string {
	var buf [32]byte
	b := append(buf[:0], "client-"...)
	for lim := 1000; i < lim && lim > 1; lim /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// TrainTime returns how long client c needs for one local training pass.
func (p *Population) TrainTime(c *Client) sim.Duration {
	t := float64(p.BaseTrainTime) / c.Speed
	if p.Class == Mobile {
		// The 8-way host share is already folded into BaseTrainTime for
		// mobiles; add the per-round contention jitter instead.
		t = float64(p.rng.Jitter(sim.Duration(t), 0.12))
	} else {
		t = float64(p.rng.Jitter(sim.Duration(t), 0.08))
	}
	return sim.Duration(t)
}

// Hibernation returns the random unavailability interval before the client
// can join a round (mobile only; servers return 0).
func (p *Population) Hibernation(c *Client) sim.Duration {
	if p.Class != Mobile {
		return 0
	}
	return p.rng.Uniform(p.HibernateMax)
}

// LocalUpdate produces client c's model update for the given round: the
// global model plus a deterministic, client-specific perturbation that
// shrinks as training converges. The returned tensor has the model's
// physical/virtual geometry, and the FedAvg weight is c.Samples.
func (p *Population) LocalUpdate(c *Client, global *tensor.Tensor, round int) *tensor.Tensor {
	u := global.Clone()
	p.perturb(u, c, round)
	return u
}

// LocalUpdateInto is LocalUpdate writing into a caller-owned buffer (sized
// to the model's physical length) instead of cloning — the arena-backed
// form core's staged round loop uses so per-round update materialization
// recycles one buffer set instead of allocating per client. Results are
// bit-identical to LocalUpdate.
func (p *Population) LocalUpdateInto(dst *tensor.Tensor, c *Client, global *tensor.Tensor, round int) {
	copy(dst.Data, global.Data)
	dst.VirtualLen = global.VirtualLen
	p.perturb(dst, c, round)
}

// perturb applies the deterministic client/round perturbation in place:
// element i gains mag·sin(0.01·i + phase), where the magnitude decays with
// rounds (local steps shrink as the model converges) and the phase makes
// the direction client-specific via LabelSkew.
//
// The sine is Go's portable math.sin (sin.go, Cephes) inlined for the
// arguments it sees here: x = 0.01·i + phase is finite, >= 0 and far below
// the 2^29 at which math.sin switches to Payne–Hanek reduction (a tensor
// would need 5·10^10 elements to reach it), so the NaN, Inf, sign and
// trigReduce branches are gone. What remains is done once per run of
// elements sharing the octant uint64(x·4/π) — the octant's zero mapping,
// reflection and sin-or-cos choice — and per element only the Cody–Waite
// reduction and the polynomial, each in math.sin's exact expression shape
// (so a fused multiply-add, which Go may use on arm64, ppc64le and s390x,
// is applied alike). TestPerturbMatchesMathSin pins the result bit for bit
// to the loop over math.Sin that this replaces, which is math.sin on every
// port but s390x, whose math.Sin is assembly.
func (p *Population) perturb(u *tensor.Tensor, c *Client, round int) {
	mag := 0.5 / math.Sqrt(float64(round)+1)
	phase := c.LabelSkew * 2 * math.Pi
	data := u.Data
	for i := 0; i < len(data); {
		x := float64(i)*0.01 + phase
		if x == 0 { // sin(±0) = ±0
			data[i] += float32(x * mag)
			i++
			continue
		}
		oct := uint64(x * (4 / math.Pi))
		j, y := oct, float64(oct)
		if j&1 == 1 { // map zeros to origin
			j++
			y++
		}
		j &= 7
		neg := j > 3 // reflect in x axis
		if neg {
			j -= 4
		}
		if j == 1 || j == 2 {
			for ; i < len(data); i++ {
				x := float64(i)*0.01 + phase
				if uint64(x*(4/math.Pi)) != oct {
					break
				}
				z := ((x - y*pi4A) - y*pi4B) - y*pi4C
				zz := z * z
				s := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
				if neg {
					s = -s
				}
				data[i] += float32(s * mag)
			}
			continue
		}
		for ; i < len(data); i++ {
			x := float64(i)*0.01 + phase
			if uint64(x*(4/math.Pi)) != oct {
				break
			}
			z := ((x - y*pi4A) - y*pi4B) - y*pi4C
			zz := z * z
			s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
			if neg {
				s = -s
			}
			data[i] += float32(s * mag)
		}
	}
}

// math.sin's constants: π/4 split in three parts for the extended-precision
// reduction, and the Cephes sin and cos polynomial coefficients.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	sin0 = 1.58962301576546568060e-10 // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8 // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6  // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4 // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3  // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1 // 0xbfc5555555555548

	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// Curve is the accuracy-vs-round learning curve a(r) = Amax·(1 − e^{−r/Tau})
// with small deterministic ripple, calibrated per model.
type Curve struct {
	Amax float64
	Tau  float64
}

// CurveFor returns the calibrated curve for the paper's two workloads:
// ResNet-18 reaches 70% near round 80 (LIFL's 0.9 h at ≈40 s rounds,
// Fig. 9(a)); ResNet-152 reaches 70% near round 152 (1.9 h at ≈45 s rounds,
// Fig. 9(c)).
func CurveFor(m model.Spec) Curve {
	switch m.Name {
	case model.ResNet18.Name:
		return Curve{Amax: 0.78, Tau: 35}
	case model.ResNet34.Name:
		return Curve{Amax: 0.79, Tau: 50}
	default: // ResNet-152
		return Curve{Amax: 0.80, Tau: 73}
	}
}

// At returns accuracy after `round` completed rounds.
func (c Curve) At(round int) float64 {
	if round <= 0 {
		return 0.05 // random-ish initialization accuracy
	}
	a := c.Amax * (1 - math.Exp(-float64(round)/c.Tau))
	// Small deterministic ripple so curves look like measurements, without
	// breaking monotonic crossing detection at the 0.70 threshold.
	a += 0.004 * math.Sin(float64(round)*1.7)
	if a < 0.05 {
		a = 0.05
	}
	return a
}

// RoundsToAccuracy returns the first round at which the curve crosses the
// target, or -1 if unreachable.
func (c Curve) RoundsToAccuracy(target float64) int {
	for r := 1; r <= 100_000; r++ {
		if c.At(r) >= target {
			return r
		}
	}
	return -1
}
