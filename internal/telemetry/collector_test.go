package telemetry

import (
	"runtime"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

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
		bound += blocks*l1/lc.BlockSize/8 + 4<<10 // one partial 4 KiB flat.Bits page
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
