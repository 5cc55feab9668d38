package cache

import (
	"fmt"
	"math/bits"

	"ccl/internal/flat"
	"ccl/internal/memsys"
)

// TLBConfig describes the data TLB, which is fully associative, like
// the UltraSPARC-I's 64-entry dTLB. Zero Entries disables it.
type TLBConfig struct {
	Entries  int   // total entry count
	PageSize int64 // bytes mapped per entry
	Penalty  int64 // cycles per miss (software/table walk)
}

// validate reports a TLB configuration error, if any. Called by New
// only when Entries is positive.
func (c TLBConfig) validate() error {
	if c.PageSize <= 0 || c.Penalty < 0 {
		return fmt.Errorf("cache: TLB needs a positive page size and non-negative penalty")
	}
	return nil
}

// tlb is the data TLB: one fully-associative LRU set of page numbers
// (flat.LRU), so a hit or a miss costs one hash probe however many
// entries the TLB has. A miss evicts the least recently touched page.
//
// That is also the page with the smallest h.now at its last touch,
// the order FuzzTLB checks against: every access advances h.now by at
// least the L1 latency, which is at least one cycle on every shipped
// geometry, so those stamps strictly increase. With a 0-cycle L1 two
// touches can share a cycle; touch order is then the defined order.
type tlb struct {
	penalty int64

	pageShift uint  // log2(PageSize) when PageSize is a power of two
	pageSize  int64 // divisor for the general path; 0 selects the shift path

	pages flat.LRU
}

// newTLB builds the TLB for a validated config with positive Entries.
// Its arrays are sized here, in two allocations, so the access path
// never allocates.
func newTLB(cfg TLBConfig) *tlb {
	t := &tlb{penalty: cfg.Penalty, pageSize: cfg.PageSize}
	if cfg.PageSize&(cfg.PageSize-1) == 0 {
		t.pageShift = uint(bits.TrailingZeros64(uint64(cfg.PageSize)))
		t.pageSize = 0
	}
	t.pages.Reserve(cfg.Entries)
	return t
}

// pageOf returns addr's page number.
func (t *tlb) pageOf(addr memsys.Addr) int64 {
	if t.pageSize == 0 {
		return int64(addr) >> t.pageShift
	}
	return int64(addr) / t.pageSize
}
