package telemetry

import (
	"math"
	"testing"

	"ccl/internal/trace"
)

// FuzzThreeCSum replays fuzz-derived traces (trace.FromBytes) through
// an observed hierarchy and checks the 3C accounting identity:
// compulsory + capacity + conflict misses must equal each level's
// demand miss counter, for any geometry and access stream.
func FuzzThreeCSum(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 8, 15})
	f.Add([]byte{2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := trace.FromBytes(data)
		if !ok {
			return
		}
		if err := checkThreeCSums(tr); err != nil {
			t.Fatal(err)
		}
	})
}

// refLRU is the reference the shadow cache is checked against: an
// ordered slice, most recently used first.
type refLRU struct {
	capacity int
	order    []int64
}

func (r *refLRU) index(block int64) int {
	for i, b := range r.order {
		if b == block {
			return i
		}
	}
	return -1
}

func (r *refLRU) touch(block int64) bool {
	i := r.index(block)
	if i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
	} else if len(r.order) == r.capacity {
		r.order = r.order[:len(r.order)-1]
	}
	r.order = append([]int64{block}, r.order...)
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
	s := newLRUSet(capacity)
	for k := 0; k < capacity; k++ {
		s.touch(int64(k)) // grow the index to its full size
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

// FuzzShadowLRU drives the array-backed shadow cache and refLRU with
// the same operations and requires identical answers. The first byte
// picks a capacity in 1..64; each following pair is an operation
// (touch when even, contains when odd) and a key from shadowKeys.
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
		s := newLRUSet(capacity)
		ref := &refLRU{capacity: capacity}
		for i := 1; i+1 < len(data); i += 2 {
			k := keys[int(data[i+1])%len(keys)]
			if data[i]%2 == 0 {
				if got, want := s.touch(k), ref.touch(k); got != want {
					t.Fatalf("op %d: touch(%d) = %v, reference %v", i/2, k, got, want)
				}
			} else if got, want := s.contains(k), ref.index(k) >= 0; got != want {
				t.Fatalf("op %d: contains(%d) = %v, reference %v", i/2, k, got, want)
			}
		}
		for _, k := range keys {
			if got, want := s.contains(k), ref.index(k) >= 0; got != want {
				t.Fatalf("final contains(%d) = %v, reference %v", k, got, want)
			}
		}
	})
}
