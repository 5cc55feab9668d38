package heap

import (
	"errors"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

func newHeap() (*memsys.Arena, *Malloc) {
	a := memsys.NewArena(0)
	return a, New(a)
}

func TestAllocBasics(t *testing.T) {
	a, h := newHeap()
	p := MustAlloc(h, 24)
	if p.IsNil() {
		t.Fatal("Alloc returned nil")
	}
	if int64(p)%8 != 0 {
		t.Fatalf("allocation %v not 8-aligned", p)
	}
	if !a.Mapped(p, 24) {
		t.Fatal("allocation not inside mapped arena")
	}
	a.StoreInt(p, 12345)
	if a.LoadInt(p) != 12345 {
		t.Fatal("payload does not hold data")
	}
	got, err := h.UsableSize(p)
	if err != nil {
		t.Fatalf("UsableSize: %v", err)
	}
	if got < 24 {
		t.Fatalf("UsableSize = %d, want >= 24", got)
	}
}

func TestAllocZeroFails(t *testing.T) {
	_, h := newHeap()
	if _, err := h.Alloc(0); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("Alloc(0) err = %v, want ErrInvalidArg", err)
	}
}

func TestSequentialAllocsAreAdjacent(t *testing.T) {
	_, h := newHeap()
	// The property the paper's baseline depends on: allocation
	// order produces address order.
	var prev memsys.Addr
	for i := 0; i < 100; i++ {
		p := MustAlloc(h, 24)
		if !prev.IsNil() && p <= prev {
			t.Fatalf("allocation %d at %v not after %v", i, p, prev)
		}
		if !prev.IsNil() && int64(p)-int64(prev) > 64 {
			t.Fatalf("allocation %d at %v leaves a large gap after %v", i, p, prev)
		}
		prev = p
	}
}

func TestFreeAndReuse(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 40)
	h.Alloc(40) // barrier so p is not top-adjacent
	h.Free(p)
	q := MustAlloc(h, 40)
	if q != p {
		t.Fatalf("freed chunk not reused: got %v, want %v", q, p)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceForward(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 40)
	q := MustAlloc(h, 40)
	h.Alloc(40) // barrier
	h.Free(q)
	h.Free(p) // should merge with q
	if h.Stats().Coalesces == 0 {
		t.Fatal("no coalesce recorded")
	}
	// Merged chunk can satisfy a request bigger than either part.
	r := MustAlloc(h, 80)
	if r != p {
		t.Fatalf("merged chunk not used: got %v, want %v", r, p)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceBackward(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 40)
	q := MustAlloc(h, 40)
	h.Alloc(40) // barrier
	h.Free(p)
	h.Free(q) // should merge backward into p
	r := MustAlloc(h, 80)
	if r != p {
		t.Fatalf("backward merge failed: got %v, want %v", r, p)
	}
}

func TestCoalesceBothSides(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 40)
	q := MustAlloc(h, 40)
	r := MustAlloc(h, 40)
	h.Alloc(40) // barrier
	h.Free(p)
	h.Free(r)
	h.Free(q) // merges with both neighbours
	s := MustAlloc(h, 120)
	if s != p {
		t.Fatalf("three-way merge failed: got %v, want %v", s, p)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLargeChunk(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 400)
	h.Alloc(16) // barrier
	h.Free(p)
	small := MustAlloc(h, 40)
	if small != p {
		t.Fatalf("first-fit split should reuse front of freed chunk: got %v, want %v", small, p)
	}
	if h.Stats().Splits == 0 {
		t.Fatal("no split recorded")
	}
	// The remainder should serve another request without growing.
	ext := h.Stats().Extends
	h.Alloc(200)
	if h.Stats().Extends != ext {
		t.Fatal("remainder not reused; heap grew")
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	_, h := newHeap()
	h.Free(memsys.NilAddr)
	if h.Stats().Frees != 0 {
		t.Fatal("Free(nil) counted")
	}
}

func TestDoubleFreeFails(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 40)
	h.Alloc(40)
	if err := h.Free(p); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := h.Free(p); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("double free err = %v, want ErrInvalidArg", err)
	}
}

func TestLargeAllocations(t *testing.T) {
	a, h := newHeap()
	big := MustAlloc(h, 3*memsys.DefaultPageSize)
	if !a.Mapped(big, 3*memsys.DefaultPageSize) {
		t.Fatal("large allocation not fully mapped")
	}
	a.Memset(big, 0xEE, 3*memsys.DefaultPageSize)
	h.Free(big)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedSbrkOpensNewSegment(t *testing.T) {
	a, h := newHeap()
	h.Alloc(64)
	a.Sbrk(memsys.DefaultPageSize) // foreign pages between segments
	p := MustAlloc(h, memsys.DefaultPageSize)
	a.StoreInt(p, 7)
	q := MustAlloc(h, 64)
	a.StoreInt(q, 8)
	h.Free(p)
	h.Free(q)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocHintIgnoredByBaseline(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 24)
	q := MustAllocHint(h, 24, p)
	r := MustAlloc(h, 24)
	// Baseline is hint-blind: hinted and unhinted allocations
	// both just come next in address order.
	if !(p < q && q < r) {
		t.Fatalf("hint changed baseline behaviour: %v %v %v", p, q, r)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, h := newHeap()
	p := MustAlloc(h, 100)
	h.Alloc(50)
	s := h.Stats()
	if s.Allocs != 2 || s.BytesRequested != 150 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesLive <= 150 {
		t.Fatalf("BytesLive = %d should include overhead", s.BytesLive)
	}
	if s.HeapBytes < s.BytesLive {
		t.Fatalf("HeapBytes %d < BytesLive %d", s.HeapBytes, s.BytesLive)
	}
	h.Free(p)
	if got := h.Stats().Frees; got != 1 {
		t.Fatalf("Frees = %d", got)
	}
}

// TestRandomWorkload drives the allocator with a randomized
// alloc/free mix against a shadow model, verifying no two live
// objects overlap and payload data survives.
func TestRandomWorkload(t *testing.T) {
	a, h := newHeap()
	rng := rand.New(rand.NewSource(42))
	type obj struct {
		addr memsys.Addr
		size int64
		tag  uint64
	}
	var live []obj

	overlaps := func(p memsys.Addr, n int64) bool {
		for _, o := range live {
			if p < o.addr.Add(o.size) && o.addr < p.Add(n) {
				return true
			}
		}
		return false
	}

	for step := 0; step < 4000; step++ {
		if len(live) > 0 && rng.Intn(100) < 40 {
			i := rng.Intn(len(live))
			o := live[i]
			if got := a.Load64(o.addr); got != o.tag {
				t.Fatalf("step %d: object at %v corrupted: got %#x want %#x", step, o.addr, got, o.tag)
			}
			h.Free(o.addr)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := int64(8 + rng.Intn(300))
		p := MustAlloc(h, size)
		if overlaps(p, size) {
			t.Fatalf("step %d: allocation [%v,+%d) overlaps a live object", step, p, size)
		}
		tag := rng.Uint64()
		a.Store64(p, tag)
		if size > 8 {
			// Fill the whole payload to catch footer clobbering.
			a.Memset(p.Add(8), byte(step), size-8)
		}
		live = append(live, obj{p, size, tag})
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, o := range live {
		if got := a.Load64(o.addr); got != o.tag {
			t.Fatalf("final check: object at %v corrupted", o.addr)
		}
	}
}

func TestHeapReusesFreedMemoryUnderChurn(t *testing.T) {
	_, h := newHeap()
	var ptrs []memsys.Addr
	for i := 0; i < 64; i++ {
		ptrs = append(ptrs, MustAlloc(h, 48))
	}
	grown := h.HeapBytes()
	// Steady-state churn must not grow the heap.
	for round := 0; round < 50; round++ {
		for _, p := range ptrs {
			h.Free(p)
		}
		ptrs = ptrs[:0]
		for i := 0; i < 64; i++ {
			ptrs = append(ptrs, MustAlloc(h, 48))
		}
	}
	if h.HeapBytes() != grown {
		t.Fatalf("heap grew under steady churn: %d -> %d", grown, h.HeapBytes())
	}
}
