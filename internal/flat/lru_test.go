package flat

import (
	"math"
	"testing"
)

func TestLRUSet(t *testing.T) {
	s := NewLRU(2)
	s.Touch(1)
	s.Touch(2)
	if !s.Contains(1) || !s.Contains(2) {
		t.Fatal("LRU dropped a resident key")
	}
	s.Touch(1) // 2 becomes LRU
	s.Touch(3) // evicts 2
	if s.Contains(2) {
		t.Fatal("MRU-ordering broken: 2 should have been evicted")
	}
	if !s.Contains(1) || !s.Contains(3) {
		t.Fatal("LRU lost a live key")
	}
	if !s.Touch(3) || !s.Touch(1) {
		t.Fatal("Touch of a resident key (MRU, then LRU) reported a miss")
	}
	// Degenerate capacity floors at one key.
	one := NewLRU(0)
	one.Touch(7)
	if !one.Contains(7) {
		t.Fatal("capacity floor broken")
	}
	one.Touch(8)
	if one.Contains(7) {
		t.Fatal("single-entry LRU held two keys")
	}
}

// TestLRUReserveAndReset checks that a reserved set answers exactly as
// a growing one, allocates nothing once reserved, and that Reset
// empties it in place and without allocating.
func TestLRUReserveAndReset(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 64} {
		var r LRU
		r.Reserve(capacity)
		g := NewLRU(capacity)
		run := func() {
			for i := int64(0); i < 300; i++ {
				k := i * 7 % 97
				if got, want := r.Touch(k), g.Touch(k); got != want {
					t.Fatalf("capacity %d: Touch(%d) = %v, growing set %v", capacity, k, got, want)
				}
			}
		}
		if n := testing.AllocsPerRun(3, run); n != 0 {
			t.Fatalf("capacity %d: reserved set allocated %.0f times per run", capacity, n)
		}
		if n := testing.AllocsPerRun(3, r.Reset); n != 0 {
			t.Fatalf("capacity %d: Reset allocated %.0f times", capacity, n)
		}
		for k := int64(0); k < 97; k++ {
			if r.Contains(k) {
				t.Fatalf("capacity %d: %d survived Reset", capacity, k)
			}
		}
		g.Reset()
		run()
	}
}

// refLRU is the reference the LRU is checked against: an ordered
// slice, most recently used first.
type refLRU struct {
	capacity int
	order    []int64
}

func (r *refLRU) index(key int64) int {
	for i, k := range r.order {
		if k == key {
			return i
		}
	}
	return -1
}

func (r *refLRU) touch(key int64) bool {
	i := r.index(key)
	if i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	} else if len(r.order) == r.capacity {
		r.order = r.order[:len(r.order)-1]
	}
	r.order = append([]int64{key}, r.order...)
	return i >= 0
}

// shadowKeys returns the key alphabet FuzzShadowLRU draws from for a
// set of the given capacity:
//   - a run of small keys around zero, wide enough to overflow the
//     largest capacity;
//   - keys that all hash to the index's last bucket or its first, at
//     its full size and so at every smaller size it grows through:
//     probe runs wrap around the table, and backward-shift deletion
//     moves entries across the end;
//   - keys at the int64 extremes.
func shadowKeys(capacity int) []int64 {
	var keys []int64
	for k := int64(-32); k < 96; k++ {
		keys = append(keys, k)
	}
	s := NewLRU(capacity)
	for k := 0; k < capacity; k++ {
		s.Touch(int64(k)) // grow the index to its full size
	}
	lastBucket := uint64(len(s.index) - 1)
	nLast, nFirst := 0, 0
	for k := int64(1000); nLast < 16 || nFirst < 8; k++ {
		switch h := s.home(k); {
		case h == lastBucket && nLast < 16:
			keys = append(keys, k)
			nLast++
		case h == 0 && nFirst < 8:
			keys = append(keys, k)
			nFirst++
		}
	}
	return append(keys, math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1)
}

// FuzzShadowLRU drives the LRU (the collector's shadow cache and the
// data TLB) and refLRU with the same operations and requires identical
// answers. The first byte picks a capacity in 1..64; each following
// pair is an operation (touch when even, contains when odd) and a key
// from shadowKeys. Even capacities use a reserved set, odd ones a
// growing one.
func FuzzShadowLRU(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1, 2, 1, 1})
	f.Add([]byte{3, 0, 128, 0, 129, 0, 130, 0, 131, 0, 132, 1, 128, 0, 133, 1, 129, 0, 128})
	f.Add([]byte{1, 0, 130, 0, 140, 0, 141, 0, 130, 0, 142, 1, 140, 0, 143, 1, 141})
	f.Add([]byte{7, 0, 152, 0, 153, 0, 154, 0, 155, 0, 0, 1, 152, 1, 155, 0, 31, 1, 154})
	seq := []byte{63}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%3), byte(i*37))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%64 + 1
		keys := shadowKeys(capacity)
		s := NewLRU(capacity)
		if capacity%2 == 0 {
			s.Reserve(capacity)
		}
		ref := &refLRU{capacity: capacity}
		for i := 1; i+1 < len(data); i += 2 {
			k := keys[int(data[i+1])%len(keys)]
			if data[i]%2 == 0 {
				if got, want := s.Touch(k), ref.touch(k); got != want {
					t.Fatalf("op %d: Touch(%d) = %v, reference %v", i/2, k, got, want)
				}
			} else if got, want := s.Contains(k), ref.index(k) >= 0; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, reference %v", i/2, k, got, want)
			}
		}
		for _, k := range keys {
			if got, want := s.Contains(k), ref.index(k) >= 0; got != want {
				t.Fatalf("final Contains(%d) = %v, reference %v", k, got, want)
			}
		}
	})
}
