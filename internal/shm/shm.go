package shm

import (
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// Common errors.
var (
	ErrNotFound   = errors.New("shm: object not found")
	ErrReleased   = errors.New("shm: object already fully released")
	ErrOutOfSpace = errors.New("shm: store capacity exceeded")
)

// Key addresses an object in a node's store: the 16 random bytes the store
// draws for it, as in Appendix A. It is hex-encoded only when printed.
type Key [16]byte

// String renders the key as 32 hex digits.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Object is an immutable model update resident in shared memory.
type Object struct {
	Key  Key
	Size uint64 // virtual payload bytes, drives all cost models
	// Tensor carries the actual aggregation arithmetic. It must be treated
	// as read-only by consumers; aggregators clone before mutating.
	Tensor *tensor.Tensor
	// Weight is the FedAvg auxiliary information A_k (number of samples c_k).
	Weight float64
	// Producer identifies the writing component (client or aggregator ID).
	Producer string
	// Round is the global model version this update targets.
	Round int
	// CreatedAt is the virtual time the object was committed.
	CreatedAt sim.Duration

	refs int
}

// Store is one node's shared-memory pool. It is not safe for concurrent use;
// the simulation is single-threaded by construction.
type Store struct {
	node     string
	rng      *sim.RNG
	eng      *sim.Engine
	capacity uint64 // 0 = unlimited

	objects map[Key]*Object

	// Accounting.
	used      uint64
	peak      uint64
	allocs    uint64
	recycles  uint64
	destroyed uint64
}

// NewStore creates a store for the named node. capacity of 0 means unbounded
// (the paper's nodes have 192 GB; experiments set a real cap via cluster).
func NewStore(eng *sim.Engine, rng *sim.RNG, node string, capacity uint64) *Store {
	return &Store{
		node:     node,
		rng:      rng,
		eng:      eng,
		capacity: capacity,
		objects:  make(map[Key]*Object),
	}
}

// newKey generates a fresh random 16-byte key, retrying on the (vanishingly
// unlikely) collision.
func (s *Store) newKey() Key {
	var k Key
	for {
		s.rng.Bytes(k[:])
		if _, exists := s.objects[k]; !exists {
			return k
		}
	}
}

// Put commits an immutable object and returns its key. The initial reference
// count is 1 (owned by the producer's hand-off); each additional consumer
// must AddRef before the producer releases.
func (s *Store) Put(t *tensor.Tensor, weight float64, producer string, round int) (Key, error) {
	size := t.VirtualBytes()
	if s.capacity > 0 && s.used+size > s.capacity {
		return Key{}, fmt.Errorf("%w: node %s used %d + %d > cap %d", ErrOutOfSpace, s.node, s.used, size, s.capacity)
	}
	k := s.newKey()
	s.objects[k] = &Object{
		Key:       k,
		Size:      size,
		Tensor:    t,
		Weight:    weight,
		Producer:  producer,
		Round:     round,
		CreatedAt: s.eng.Now(),
		refs:      1,
	}
	s.used += size
	if s.used > s.peak {
		s.peak = s.used
	}
	s.allocs++
	return k, nil
}

// Get returns the object for k without changing its reference count.
func (s *Store) Get(k Key) (*Object, error) {
	o, ok := s.objects[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s on node %s", ErrNotFound, k, s.node)
	}
	return o, nil
}

// AddRef registers an additional consumer of k.
func (s *Store) AddRef(k Key) error {
	o, ok := s.objects[k]
	if !ok {
		return fmt.Errorf("%w: %s on node %s", ErrNotFound, k, s.node)
	}
	o.refs++
	return nil
}

// Release drops one reference; when the count reaches zero the buffer is
// recycled and its bytes return to the pool.
func (s *Store) Release(k Key) error {
	o, ok := s.objects[k]
	if !ok {
		return fmt.Errorf("%w: %s on node %s", ErrNotFound, k, s.node)
	}
	if o.refs <= 0 {
		return fmt.Errorf("%w: %s", ErrReleased, k)
	}
	o.refs--
	if o.refs == 0 {
		delete(s.objects, k)
		s.used -= o.Size
		s.recycles++
		s.destroyed++
	}
	return nil
}

// Refs reports the current reference count (0 with error if absent).
func (s *Store) Refs(k Key) (int, error) {
	o, ok := s.objects[k]
	if !ok {
		return 0, fmt.Errorf("%w: %s on node %s", ErrNotFound, k, s.node)
	}
	return o.refs, nil
}

// Used returns bytes currently resident.
func (s *Store) Used() uint64 { return s.used }

// Peak returns the high-water mark of resident bytes — the memory-cost
// metric of Fig. 13(b).
func (s *Store) Peak() uint64 { return s.peak }

// Len returns the number of live objects.
func (s *Store) Len() int { return len(s.objects) }

// Stats summarizes allocation activity.
type Stats struct {
	Node      string
	Used      uint64
	Peak      uint64
	Live      int
	Allocs    uint64
	Recycles  uint64
	Destroyed uint64
}

// Stats returns a snapshot of store accounting.
func (s *Store) Stats() Stats {
	return Stats{
		Node: s.node, Used: s.used, Peak: s.peak, Live: len(s.objects),
		Allocs: s.allocs, Recycles: s.recycles, Destroyed: s.destroyed,
	}
}

// Node returns the owning node name.
func (s *Store) Node() string { return s.node }
