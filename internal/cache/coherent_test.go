package cache

import (
	"testing"

	"ccl/internal/memsys"
)

func coherentConfig() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1, WriteBack: true},
			{Name: "L2", Size: 4 << 10, Assoc: 2, BlockSize: 64, Latency: 6, WriteBack: true},
		},
		MemLatency: 40,
	}
}

func TestInvalidateDropsAllLevels(t *testing.T) {
	h := New(coherentConfig())
	h.Access(0x100, 8, Store)
	if !h.Contains(0, 0x100) || !h.Contains(1, 0x100) {
		t.Fatal("store did not install at both levels")
	}
	valid, dirty := h.Invalidate(0x100, 64)
	if !valid || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", valid, dirty)
	}
	if h.Contains(0, 0x100) || h.Contains(1, 0x100) {
		t.Fatal("block still resident after Invalidate")
	}
	// A second invalidation of the now-absent granule is a no-op.
	valid, dirty = h.Invalidate(0x100, 64)
	if valid || dirty {
		t.Fatalf("Invalidate of absent block = (%v, %v), want (false, false)", valid, dirty)
	}
}

func TestInvalidateSpanCoversSmallBlocks(t *testing.T) {
	h := New(coherentConfig())
	// Two adjacent 16-byte L1 blocks inside one 64-byte granule.
	h.Access(0x200, 8, Load)
	h.Access(0x210, 8, Load)
	valid, dirty := h.Invalidate(0x200, 64)
	if !valid || dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, false)", valid, dirty)
	}
	if h.Contains(0, 0x200) || h.Contains(0, 0x210) {
		t.Fatal("granule-span invalidation missed an L1 block")
	}
}

func TestDowngradeClearsDirty(t *testing.T) {
	h := New(coherentConfig())
	h.Access(0x300, 8, Store)
	if !h.Downgrade(0x300, 64) {
		t.Fatal("Downgrade of a dirty block reported clean")
	}
	if !h.Contains(0, 0x300) || !h.Contains(1, 0x300) {
		t.Fatal("Downgrade dropped a resident copy")
	}
	// Downgrade is idempotent and reports clean the second time.
	if h.Downgrade(0x300, 64) {
		t.Fatal("second Downgrade reported dirty")
	}
	// A later eviction of the downgraded block must not count a
	// writeback: the forced writeback already happened.
	before := h.Stats().Levels[0].Writebacks
	base := memsys.Addr(0x300)
	for i := int64(1); i <= 64; i++ {
		h.Access(base.Add(i*1024), 8, Load) // walk conflicting sets
	}
	if h.Contains(0, 0x300) {
		t.Skip("conflict walk did not evict the block; geometry changed")
	}
	after := h.Stats().Levels[0].Writebacks
	if after != before {
		t.Fatalf("downgraded block caused %d writebacks on eviction", after-before)
	}
}

func TestMemAccessesAccessor(t *testing.T) {
	h := New(coherentConfig())
	if h.MemAccesses() != 0 {
		t.Fatal("fresh hierarchy reports memory accesses")
	}
	h.Access(0x500, 8, Load)
	if got := h.MemAccesses(); got != 1 {
		t.Fatalf("MemAccesses = %d after one cold miss, want 1", got)
	}
	h.Access(0x500, 8, Load)
	if got := h.MemAccesses(); got != 1 {
		t.Fatalf("MemAccesses = %d after a hit, want 1", got)
	}
	if got := h.Stats().MemAccesses; got != h.MemAccesses() {
		t.Fatalf("accessor %d disagrees with Stats %d", h.MemAccesses(), got)
	}
}
