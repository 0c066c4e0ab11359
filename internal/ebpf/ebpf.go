package ebpf

import (
	"errors"

	"repro/internal/shm"
	"repro/internal/sim"
)

// Common errors.
var (
	ErrNoSocket   = errors.New("ebpf: no socket registered for key")
	ErrNoProgram  = errors.New("ebpf: no SKMSG program attached")
	ErrKeyMissing = errors.New("ebpf: map key missing")
)

// Verdict is an SKMSG program's decision, mirroring SK_PASS / SK_DROP and
// the redirect helper.
type Verdict int

const (
	// VerdictPass delivers the message to the socket's own receiver.
	VerdictPass Verdict = iota
	// VerdictRedirect delivers to another socket chosen from a sockmap.
	VerdictRedirect
	// VerdictDrop discards the message.
	VerdictDrop
)

// Message is the unit passed over an SKMSG channel. In LIFL's intra-node
// path the payload is only the 16-byte shm object key; Size records the
// bytes physically moved through the socket (not the model size).
type Message struct {
	SrcID  string
	DstID  string
	ShmKey shm.Key
	Size   uint64
	Round  int
	// Kind is a free-form tag ("update", "route-update", "convert", ...).
	Kind string
}

// Socket is a registered endpoint. Deliver is invoked (in virtual time by
// the caller's scheduling) when a message reaches the socket.
type Socket struct {
	FD      int
	Owner   string
	Deliver func(Message)
}

// Map is a generic in-kernel key/value table (BPF_MAP_TYPE_HASH).
type Map[K comparable, V any] struct {
	name string
	m    map[K]V
}

// NewMap creates a named map.
func NewMap[K comparable, V any](name string) *Map[K, V] {
	return &Map[K, V]{name: name, m: make(map[K]V)}
}

// UpdateElem inserts or replaces (bpf_map_update_elem).
func (m *Map[K, V]) UpdateElem(k K, v V) { m.m[k] = v }

// LookupElem fetches (bpf_map_lookup_elem).
func (m *Map[K, V]) LookupElem(k K) (V, bool) {
	v, ok := m.m[k]
	return v, ok
}

// DeleteElem removes (bpf_map_delete_elem).
func (m *Map[K, V]) DeleteElem(k K) { delete(m.m, k) }

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return len(m.m) }

// Name returns the map's name.
func (m *Map[K, V]) Name() string { return m.name }

// ForEach iterates entries in unspecified order.
func (m *Map[K, V]) ForEach(fn func(K, V)) {
	for k, v := range m.m {
		fn(k, v)
	}
}

// SockMap is BPF_MAP_TYPE_SOCKMAP: component ID → registered socket
// (Fig. 12: "a1's id → a1's sock fd").
type SockMap struct {
	name   string
	socks  map[string]*Socket
	nextFD int
}

// NewSockMap creates an empty sockmap.
func NewSockMap(name string) *SockMap {
	return &SockMap{name: name, socks: make(map[string]*Socket)}
}

// Register creates a socket owned by id with the given deliver callback and
// installs it under key id. Returns the socket for re-registration under
// other keys (e.g. a remote aggregator's ID mapping to the local gateway's
// socket, as in Fig. 12 node 2).
func (sm *SockMap) Register(id string, deliver func(Message)) *Socket {
	sm.nextFD++
	s := &Socket{FD: sm.nextFD, Owner: id, Deliver: deliver}
	sm.socks[id] = s
	return s
}

// Install maps key → an existing socket (update of the sockmap entry).
func (sm *SockMap) Install(key string, s *Socket) { sm.socks[key] = s }

// Remove deletes the entry for key.
func (sm *SockMap) Remove(key string) { delete(sm.socks, key) }

// Lookup returns the socket registered under key.
func (sm *SockMap) Lookup(key string) (*Socket, bool) {
	s, ok := sm.socks[key]
	return s, ok
}

// Len returns the number of registered entries.
func (sm *SockMap) Len() int { return len(sm.socks) }

// MetricSample is one record in the metrics map, written by the eBPF sidecar
// on every send() event (§4.3) and drained periodically by the LIFL agent.
// Round stamps the training round (or async version) the message belonged
// to, which is what lets RetireRound evict a closed round's samples.
type MetricSample struct {
	Owner     string
	Kind      string
	Size      uint64
	Round     int
	ExecTime  sim.Duration // execution time of the preceding task
	Timestamp sim.Duration
}

// SKMSGProgram models the eBPF program set LIFL attaches at each
// aggregator's socket SKMSG hook. On every send() event it (1) records a
// metric sample into the in-kernel metrics map and (2) redirects the message
// to the destination socket found in the sockmap.
type SKMSGProgram struct {
	sockMap *SockMap
	metrics *Map[uint64, MetricSample]
	eng     *sim.Engine
	seq     uint64

	// Runs counts invocations — by construction the only times the sidecar
	// consumes CPU (event-driven execution).
	Runs uint64
	// Redirects counts successful sockmap redirections.
	Redirects uint64
	// Drops counts messages with no destination socket.
	Drops uint64
}

// NewSKMSGProgram attaches a program over the given sockmap and metrics map.
func NewSKMSGProgram(eng *sim.Engine, sm *SockMap, metrics *Map[uint64, MetricSample]) *SKMSGProgram {
	return &SKMSGProgram{sockMap: sm, metrics: metrics, eng: eng}
}

// Run executes the program for one send() event: records metrics, looks up
// the destination, and returns the verdict plus target socket. The caller
// (data plane) is responsible for charging the CPU cycles and scheduling the
// delivery in virtual time. A destination with no socket yet is an expected
// outcome (the data plane parks the update until its aggregator binds), so
// it returns VerdictDrop with the bare ErrNoSocket rather than building an
// error per message.
func (p *SKMSGProgram) Run(msg Message, execTime sim.Duration) (Verdict, *Socket, error) {
	p.Runs++
	if p.metrics != nil {
		p.seq++
		p.metrics.UpdateElem(p.seq, MetricSample{
			Owner:     msg.SrcID,
			Kind:      msg.Kind,
			Size:      msg.Size,
			Round:     msg.Round,
			ExecTime:  execTime,
			Timestamp: p.eng.Now(),
		})
	}
	dst, ok := p.sockMap.Lookup(msg.DstID)
	if !ok {
		p.Drops++
		return VerdictDrop, nil, ErrNoSocket
	}
	p.Redirects++
	return VerdictRedirect, dst, nil
}

// RetireRound deletes buffered samples stamped with Round <= last and
// returns how many were dropped — the round-closure half of the metrics
// map lifecycle. The control plane retires a round's samples when the
// round's records are evicted; DrainMetrics stays available for the §4.3
// periodic full retrieval.
func (p *SKMSGProgram) RetireRound(last int) int {
	if p.metrics == nil {
		return 0
	}
	var dead []uint64
	p.metrics.ForEach(func(k uint64, v MetricSample) {
		if v.Round <= last {
			dead = append(dead, k)
		}
	})
	for _, k := range dead {
		p.metrics.DeleteElem(k)
	}
	return len(dead)
}

// DrainMetrics removes and returns all buffered samples — the LIFL agent's
// periodic retrieval that feeds the metrics server (§4.3).
func (p *SKMSGProgram) DrainMetrics() []MetricSample {
	if p.metrics == nil {
		return nil
	}
	out := make([]MetricSample, 0, p.metrics.Len())
	keys := make([]uint64, 0, p.metrics.Len())
	p.metrics.ForEach(func(k uint64, v MetricSample) {
		keys = append(keys, k)
		out = append(out, v)
	})
	for _, k := range keys {
		p.metrics.DeleteElem(k)
	}
	return out
}
