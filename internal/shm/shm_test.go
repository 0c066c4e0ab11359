package shm

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/tensor"
)

func newStore(cap uint64) *Store {
	eng := sim.NewEngine()
	return NewStore(eng, sim.NewRNG(1), "n0", cap)
}

func TestPutGetRelease(t *testing.T) {
	s := newStore(0)
	u := tensor.NewVirtual(4, 1000)
	k, err := s.Put(u, 3, "client-1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.String()) != 32 { // 16 random bytes, hex-encoded when printed
		t.Fatalf("key %q not 16 bytes hex", k)
	}
	o, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if o.Weight != 3 || o.Producer != "client-1" || o.Round != 7 {
		t.Fatalf("object metadata: %+v", o)
	}
	if o.Size != u.VirtualBytes() {
		t.Fatalf("size = %d", o.Size)
	}
	if s.Used() != o.Size || s.Len() != 1 {
		t.Fatalf("usage: %d bytes, %d objects", s.Used(), s.Len())
	}
	if err := s.Release(k); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatal("release did not recycle")
	}
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after release: %v", err)
	}
}

func TestRefCounting(t *testing.T) {
	s := newStore(0)
	k, _ := s.Put(tensor.New(2), 1, "p", 0)
	if err := s.AddRef(k); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Refs(k); n != 2 {
		t.Fatalf("refs = %d", n)
	}
	if err := s.Release(k); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); err != nil {
		t.Fatal("object must survive while a ref remains")
	}
	if err := s.Release(k); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of recycled object: %v", err)
	}
}

func TestAddRefMissing(t *testing.T) {
	s := newStore(0)
	if err := s.AddRef(Key{0xde, 0xad}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Refs(Key{0xde, 0xad}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	u := tensor.NewVirtual(1, 100) // 400 B
	s := newStore(500)
	if _, err := s.Put(u.Clone(), 1, "p", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(u.Clone(), 1, "p", 0); !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("expected out-of-space, got %v", err)
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	s := newStore(0)
	u := tensor.NewVirtual(1, 100)
	k1, _ := s.Put(u.Clone(), 1, "p", 0)
	k2, _ := s.Put(u.Clone(), 1, "p", 0)
	_ = s.Release(k1)
	_ = s.Release(k2)
	if s.Peak() != 800 {
		t.Fatalf("peak = %d, want 800", s.Peak())
	}
	st := s.Stats()
	if st.Allocs != 2 || st.Recycles != 2 || st.Destroyed != 2 || st.Live != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestKeysAreUnique(t *testing.T) {
	s := newStore(0)
	seen := make(map[Key]bool)
	for i := 0; i < 2000; i++ {
		k, err := s.Put(tensor.New(1), 1, "p", 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
	}
}

// Property: any interleaving of puts and releases keeps Used equal to the
// sum of live object sizes.
func TestUsageInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newStore(0)
		var live []Key
		var liveBytes uint64
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				k := live[0]
				live = live[1:]
				o, err := s.Get(k)
				if err != nil {
					return false
				}
				liveBytes -= o.Size
				if err := s.Release(k); err != nil {
					return false
				}
				continue
			}
			n := int(op%7) + 1
			u := tensor.NewVirtual(1, n*10)
			k, err := s.Put(u, 1, "p", 0)
			if err != nil {
				return false
			}
			live = append(live, k)
			liveBytes += u.VirtualBytes()
		}
		return s.Used() == liveBytes && s.Len() == len(live)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
