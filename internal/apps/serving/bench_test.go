package serving

import (
	"testing"

	"ccl/internal/machine"
)

// One operation on each serving structure, on a warmed scaled machine:
// the structure is built and filled, and one pass of the measured loop
// runs before the timer starts, so caches and TLB hold the steady
// state. Every benchmark allocates nothing per op.

// BenchmarkKVGet looks up keys 1..600 in turn in an AoS, malloc-placed
// store holding the two thirds of them that PresentKey admits, so one
// get in three misses.
func BenchmarkKVGet(b *testing.B) {
	const keys = 600
	kv, err := NewKV(machine.NewScaled(16), KVConfig{Layout: KVAoS, Placement: KVMalloc, Slots: 1024})
	if err != nil {
		b.Fatal(err)
	}
	if err := WarmKV(kv, keys); err != nil {
		b.Fatal(err)
	}
	for k := uint32(1); k <= keys; k++ {
		kv.Get(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.Get(uint32(i%keys) + 1)
	}
}

// BenchmarkLRUHit gets resident keys of a full, co-located LRU in
// turn: every get hits and moves its entry to the front of the list.
func BenchmarkLRUHit(b *testing.B) {
	const keys = 256
	c, err := NewLRU(machine.NewScaled(16), LRUConfig{Capacity: keys, IndexSlots: 2048, Placement: LRUMalloc})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint32(1); k <= keys; k++ {
		if err := c.Put(k, int64(k)); err != nil {
			b.Fatal(err)
		}
	}
	for k := uint32(1); k <= keys; k++ {
		c.Get(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(uint32(i%keys) + 1); !ok {
			b.Fatal("resident key missed")
		}
	}
}

// BenchmarkPQPop pops the minimum of a 1024-element 4-ary heap and
// pushes it back later in time (the hold model RunPQ drives), so the
// heap keeps its size; one op is the pop and its re-push.
func BenchmarkPQPop(b *testing.B) {
	w := PQWorkload{Seed: 3, Fill: 1024}
	q, err := NewPQueue(machine.NewScaled(16), PQConfig{Arity: 4, Cap: w.Fill + 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := FillPQ(q, w); err != nil {
		b.Fatal(err)
	}
	hold := func(i int) {
		pri, pay, _ := q.Pop()
		if err := q.Push(pri+int64(i*7919%pqDelaySpan), pay); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < int(w.Fill); i++ {
		hold(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold(i)
	}
}
