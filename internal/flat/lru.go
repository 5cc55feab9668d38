package flat

import "math/bits"

// LRU is a fixed-capacity, fully-associative LRU set of int64 keys.
// Resident keys live in one slot array, linked into a recency list by
// slot number and found through an open-addressing index, so touch and
// contains are O(1) however large the capacity.
type LRU struct {
	capacity   int
	slots      []lruSlot // slots fill in order, then recycle
	head, tail int32     // most / least recently used slot; -1 when empty

	// index maps key -> slot by linear probing over a power-of-two
	// table at most a quarter full, which keeps probe runs short, and
	// deletes by backward shift so no tombstones accumulate under churn.
	index []lruBucket
	shift uint // 64 - log2(len(index)): the hash keeps the product's top bits
}

// lruSlot is one resident key and its recency links; -1 ends the list.
type lruSlot struct {
	key        int64
	prev, next int32
}

// lruBucket is one index bucket. The key sits beside its slot so a
// probe reads one line; ref is slot+1, so the zero bucket is empty.
type lruBucket struct {
	key int64
	ref int32
}

// NewLRU returns an empty set of at most capacity keys (at least one).
// Its arrays grow with the resident count, so a set that never fills
// stays small; once it is full, Touch recycles the LRU slot and
// allocates nothing.
func NewLRU(capacity int) *LRU {
	s := &LRU{}
	s.init(max(capacity, 1), 4)
	return s
}

// Reserve makes s an empty set of at most capacity keys (at least one)
// with both arrays allocated at their full size, so no later call
// allocates. A set that is built often and fills at once, like a
// TLB, pays two allocations here instead of one per doubling.
func (s *LRU) Reserve(capacity int) {
	capacity = max(capacity, 1)
	// The smallest power of two at least four times capacity: the size
	// lazy growth stops at.
	s.init(capacity, 1<<bits.Len(uint(4*capacity-1)))
	s.slots = make([]lruSlot, 0, capacity)
}

// init makes s an empty set of capacity keys over an index of buckets
// buckets, a power of two.
func (s *LRU) init(capacity, buckets int) {
	*s = LRU{capacity: capacity, head: -1, tail: -1,
		index: make([]lruBucket, buckets), shift: uint(64 - bits.TrailingZeros(uint(buckets)))}
}

// Reset empties s in place, keeping its arrays: it allocates nothing.
func (s *LRU) Reset() {
	clear(s.index)
	s.slots = s.slots[:0]
	s.head, s.tail = -1, -1
}

// grow doubles the index and reinserts every resident key.
func (s *LRU) grow() {
	s.index = make([]lruBucket, 2*len(s.index))
	s.shift--
	for slot, e := range s.slots {
		i, _ := s.find(e.key)
		s.index[i] = lruBucket{key: e.key, ref: int32(slot) + 1}
	}
}

// home is key's first index bucket: a Fibonacci hash, whose top bits
// mix every bit of the key.
func (s *LRU) home(key int64) uint64 {
	return uint64(key) * 0x9e3779b97f4a7c15 >> s.shift
}

// find returns the bucket holding key, or the empty bucket that ended
// its probe run when key is absent.
func (s *LRU) find(key int64) (uint64, bool) {
	mask := uint64(len(s.index) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		b := &s.index[i]
		if b.ref == 0 {
			return i, false
		}
		if b.key == key {
			return i, true
		}
	}
}

// remove empties bucket i by backward-shift deletion: each later
// entry of the probe run whose home lies at or before the hole moves
// back into it, so lookups never need a tombstone. It returns the
// empty bucket that ended the run.
func (s *LRU) remove(i uint64) uint64 {
	mask := uint64(len(s.index) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		b := s.index[j]
		if b.ref == 0 {
			s.index[i] = lruBucket{}
			return j
		}
		if (j-s.home(b.key))&mask >= (j-i)&mask {
			s.index[i] = b
			i = j
		}
	}
}

// Contains reports whether key is resident, without refreshing its
// recency.
func (s *LRU) Contains(key int64) bool {
	_, ok := s.find(key)
	return ok
}

// Touch makes key the most recently used entry, inserting it (and
// evicting the LRU entry when full) if absent. It reports whether key
// was resident before the call.
func (s *LRU) Touch(key int64) bool {
	if s.head >= 0 && s.slots[s.head].key == key {
		// Already MRU, the common case on pointer walks: a node's key
		// load and its child-pointer load share a block (or a page).
		return true
	}
	pos, ok := s.find(key)
	if ok {
		slot := s.index[pos].ref - 1
		s.unlink(slot)
		s.pushFront(slot)
		return true
	}
	slot := int32(len(s.slots))
	if len(s.slots) < s.capacity {
		s.slots = append(s.slots, lruSlot{})
	} else {
		// Recycle the LRU slot. Its deletion shifts only its own probe
		// run; pos, where key's probe stopped, moves only if that run
		// is key's run too.
		slot = s.tail
		s.unlink(slot)
		victim, _ := s.find(s.slots[slot].key)
		if s.remove(victim) == pos {
			pos, _ = s.find(key)
		}
	}
	s.slots[slot].key = key
	s.index[pos] = lruBucket{key: key, ref: slot + 1}
	s.pushFront(slot)
	if 4*len(s.slots) > len(s.index) {
		s.grow()
	}
	return false
}

func (s *LRU) unlink(slot int32) {
	p, n := s.slots[slot].prev, s.slots[slot].next
	if p >= 0 {
		s.slots[p].next = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.slots[n].prev = p
	} else {
		s.tail = p
	}
}

func (s *LRU) pushFront(slot int32) {
	e := &s.slots[slot]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = slot
	} else {
		s.tail = slot
	}
	s.head = slot
}
