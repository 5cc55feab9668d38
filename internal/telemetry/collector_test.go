package telemetry

import (
	"math"
	"runtime"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// TestBitsetMatchesMap checks the paged bitset against a map over keys
// on both sides of page boundaries, negative keys and the int64
// extremes included, through set, testAndSet and clear.
func TestBitsetMatchesMap(t *testing.T) {
	const page = int64(1) << pageShift
	var keys []int64
	for _, pn := range []int64{-3, -2, -1, 0, 1, 2, 1 << 20, math.MinInt64 >> pageShift, math.MaxInt64 >> pageShift} {
		for _, off := range []int64{0, 1, 63, 64, 65, page/2 + 7, page - 64, page - 1} {
			keys = append(keys, pn*page+off)
		}
	}
	var b bitset
	want := map[int64]bool{}
	check := func(step string) {
		t.Helper()
		for _, k := range keys {
			if got := b.test(k); got != want[k] {
				t.Fatalf("%s: test(%d) = %v, want %v", step, k, got, want[k])
			}
		}
	}
	check("empty")
	b.clear(keys[0]) // clearing a key of an absent page is a no-op
	check("clear on empty")
	for i, k := range keys {
		if i%3 == 0 {
			b.set(k)
		} else if i%3 == 1 {
			if b.testAndSet(k) {
				t.Fatalf("testAndSet(%d) on a fresh key reported it present", k)
			}
		}
		if i%3 != 2 {
			want[k] = true
		}
	}
	check("after set")
	for i, k := range keys {
		if got := b.testAndSet(k); got != (i%3 != 2) {
			t.Fatalf("testAndSet(%d) = %v, want %v", k, got, i%3 != 2)
		}
		want[k] = true
	}
	check("after testAndSet")
	for i := len(keys) - 1; i >= 0; i -= 2 { // reverse order defeats the page memo
		b.clear(keys[i])
		delete(want, keys[i])
	}
	check("after clear")
}

// TestCollectorMemoryBounded streams 1M distinct L1 blocks through a
// collector on the paper hierarchy and bounds the heap growth by:
//   - the seen sets: one bit per distinct block at each level, plus
//     one partial 4 KiB page per level and 64 KiB of page directory;
//   - the shadow caches, which fill to capacity: per block of
//     capacity, 64 B of index (a quarter-full table of 16 B buckets;
//     both capacities are powers of two) and 32 B of slot arrays
//     (16 B, doubled for append's spare capacity).
//
// That is ~1.9 MB. A seen set holding one map entry per block costs
// tens of bytes per block and exceeds it many times over.
func TestCollectorMemoryBounded(t *testing.T) {
	const blocks = 1 << 20
	cfg := cache.PaperHierarchy()
	c := NewCollector(cfg)
	l1 := cfg.Levels[0].BlockSize

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(0); i < blocks; i++ {
		c.OnAccess(memsys.Addr(i*l1), cache.Load, -1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	bound := int64(64 << 10)
	for _, lc := range cfg.Levels {
		bound += blocks*l1/lc.BlockSize/8 + 1<<pageShift/8
		bound += lc.Size / lc.BlockSize * (64 + 32)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew > bound {
		t.Errorf("heap grew %d B over %d distinct blocks, bound %d B", grew, blocks, bound)
	}
	t.Logf("heap grew %d B over %d distinct blocks (bound %d B)", grew, blocks, bound)
	if comp, _, _, _ := c.Misses(0); comp != blocks {
		t.Errorf("L1 compulsory misses = %d, want %d", comp, blocks)
	}
	runtime.KeepAlive(c)
}
