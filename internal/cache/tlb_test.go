package cache

import (
	"testing"

	"ccl/internal/memsys"
)

// tlbTestConfig wraps a TLB geometry in a minimal one-level hierarchy
// so each access costs 1 (L1 hit) or 1+memLat (miss), plus the TLB
// penalty when the page is unmapped — making the translation charge
// directly observable in the returned cycle count.
func tlbTestConfig(tc TLBConfig) Config {
	return Config{
		Levels:     []LevelConfig{{Name: "L1", Size: 4096, Assoc: 4, BlockSize: 16, Latency: 1}},
		MemLatency: 10,
		TLB:        tc,
	}
}

// TestTLBTable drives the TLB through eviction, page-size and
// accounting scenarios. Each step is one demand load; wantMiss
// asserts whether the step paid the translation penalty.
func TestTLBTable(t *testing.T) {
	// ceil is the last mapped byte below the simulated 32-bit address
	// space ceiling.
	const ceil = memsys.Addr(memsys.AddrSpaceLimit - 8)
	cases := []struct {
		name  string
		tlb   TLBConfig
		steps []struct {
			addr     memsys.Addr
			wantMiss bool
		}
	}{
		{
			name: "capacity eviction, fully associative LRU",
			tlb:  TLBConfig{Entries: 2, PageSize: 4096, Penalty: 30},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{0x0000, true},  // page 0 in
				{0x1000, true},  // page 1 in (full)
				{0x0008, false}, // page 0 refreshed: page 1 is now LRU
				{0x2000, true},  // page 2 evicts page 1
				{0x0010, false}, // page 0 survived
				{0x1008, true},  // page 1 was the victim
			},
		},
		{
			name: "page-size edge at the 32-bit ceiling",
			tlb:  TLBConfig{Entries: 4, PageSize: 8192, Penalty: 25},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{ceil, true},            // highest page maps without overflow
				{ceil - 8, false},       // same page: no second walk
				{ceil - 8191, true},     // one byte into the page below
				{0x0000, true},          // page 0 is distinct from the top page
				{ceil - 4096, false},    // still inside the top two pages
				{memsys.Addr(0), false}, // page 0 still resident
			},
		},
		{
			name: "non-power-of-two page size uses the division path",
			tlb:  TLBConfig{Entries: 2, PageSize: 3000, Penalty: 20},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{0, true},     // page 0: [0, 3000)
				{2999, false}, // last byte of page 0
				{3000, true},  // first byte of page 1
				{5999, false}, // last byte of page 1
				{6000, true},  // page 2 evicts page 0 (LRU)
				{1, true},     // page 0 re-walked
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tlbTestConfig(tc.tlb))
			wantMisses := int64(0)
			for i, s := range tc.steps {
				cost := h.Access(s.addr, 1, Load)
				// Strip the cache component: 1 for a hit, 1+MemLatency
				// for a miss; what remains is the translation charge.
				base := cost % tc.tlb.Penalty
				if tc.tlb.Penalty == 0 || cost < tc.tlb.Penalty {
					base = cost
				}
				gotMiss := cost-base >= tc.tlb.Penalty
				if gotMiss != s.wantMiss {
					t.Fatalf("step %d (%v): cost %d, TLB miss = %v, want %v",
						i, s.addr, cost, gotMiss, s.wantMiss)
				}
				if s.wantMiss {
					wantMisses++
				}
			}
			st := h.Stats()
			if st.TLBMisses != wantMisses {
				t.Fatalf("TLBMisses = %d, want %d", st.TLBMisses, wantMisses)
			}
			if st.TLBAccesses != int64(len(tc.steps)) {
				t.Fatalf("TLBAccesses = %d, want %d", st.TLBAccesses, len(tc.steps))
			}
		})
	}
}

// TestTLBMissCostAccounting pins the exact cycle arithmetic: the
// penalty is charged once per unmapped page, stacks on top of the
// cache miss cost, and is attributed to stall cycles, not L1 hit
// cycles.
func TestTLBMissCostAccounting(t *testing.T) {
	h := New(tlbTestConfig(TLBConfig{Entries: 4, PageSize: 4096, Penalty: 30}))
	if got := h.Access(0x1000, 8, Load); got != 1+10+30 {
		t.Fatalf("cold page + cold block = %d cycles, want 41", got)
	}
	if got := h.Access(0x1000, 8, Load); got != 1 {
		t.Fatalf("warm page + warm block = %d cycles, want 1", got)
	}
	if got := h.Access(0x1800, 8, Load); got != 1+10 {
		t.Fatalf("warm page + cold block = %d cycles, want 11", got)
	}
	st := h.Stats()
	if st.TLBMisses != 1 {
		t.Fatalf("TLBMisses = %d, want 1", st.TLBMisses)
	}
	if st.L1HitCycles != 3 {
		t.Fatalf("L1HitCycles = %d, want 3 (1 per access)", st.L1HitCycles)
	}
	if st.LoadStallCycles != 40+10 {
		t.Fatalf("LoadStallCycles = %d, want 50", st.LoadStallCycles)
	}
}

// TestTLBValidate exercises the config error paths.
func TestTLBValidate(t *testing.T) {
	cases := []struct {
		name string
		tlb  TLBConfig
		ok   bool
	}{
		{"fully associative default", TLBConfig{Entries: 8, PageSize: 4096, Penalty: 10}, true},
		{"zero page size", TLBConfig{Entries: 8, Penalty: 10}, false},
		{"negative penalty", TLBConfig{Entries: 8, PageSize: 4096, Penalty: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tlb.validate()
			if tc.ok && err != nil {
				t.Fatalf("validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("validate() accepted an invalid config")
			}
		})
	}
}

// TestTLBEvictsInTouchOrder checks the replacement order: a miss
// evicts the page touched least recently, whatever order the pages
// arrived in.
func TestTLBEvictsInTouchOrder(t *testing.T) {
	tl := newTLB(TLBConfig{Entries: 3, PageSize: 4096, Penalty: 1})
	for _, p := range []int64{10, 20, 30, 10, 30} {
		tl.pages.Touch(p)
	}
	// Re-touching 10 and 30 leaves 20 least recently used.
	if tl.pages.Touch(40) {
		t.Fatal("page 40 was never mapped")
	}
	if tl.pages.Contains(20) {
		t.Fatal("page 20 should have been the LRU victim")
	}
	for _, p := range []int64{10, 30, 40} {
		if !tl.pages.Contains(p) {
			t.Fatalf("page %d should be resident", p)
		}
	}
}

// TestTLBTiedStampsEvictInTouchOrder pins the one case where a
// minimum-stamp TLB was ambiguous: with a 0-cycle L1, back-to-back
// hits leave the clock unchanged, so two pages are touched at the same
// cycle. The earlier-touched page is the victim.
func TestTLBTiedStampsEvictInTouchOrder(t *testing.T) {
	cfg := tlbTestConfig(TLBConfig{Entries: 2, PageSize: 4096, Penalty: 30})
	cfg.Levels[0].Latency = 0
	h := New(cfg)
	h.Access(0x0000, 1, Load) // page 0 in
	h.Access(0x1000, 1, Load) // page 1 in (full)
	tie := h.Now()
	for _, a := range []memsys.Addr{0x0000, 0x1000} {
		if c := h.Access(a, 1, Load); c != 0 {
			t.Fatalf("re-touch of %v cost %d cycles, want a free hit", a, c)
		}
	}
	if h.Now() != tie {
		t.Fatalf("clock moved %d -> %d: pages 0 and 1 are not tied", tie, h.Now())
	}
	h.Access(0x2000, 1, Load) // page 2 evicts page 0, touched first
	if !h.tlb.pages.Contains(1) || h.tlb.pages.Contains(0) {
		t.Fatal("tied pages were not evicted in touch order: page 0 should be the victim")
	}
}

// refTLB is the array TLB this package ran before flat.LRU, kept as
// FuzzTLB's reference: page numbers and recency stamps in parallel
// slots, hits swapped to the front, and a miss filling the first empty
// slot or else evicting the smallest stamp (lowest slot on a tie).
type refTLB struct {
	pages  []int64 // -1 marks an empty slot
	stamps []int64
}

func newRefTLB(entries int) *refTLB {
	r := &refTLB{pages: make([]int64, entries), stamps: make([]int64, entries)}
	for i := range r.pages {
		r.pages[i] = -1
	}
	return r
}

// probe returns the slot holding page, or -1, without refreshing it.
func (r *refTLB) probe(page int64) int {
	for w, p := range r.pages {
		if p == page {
			return w
		}
	}
	return -1
}

// touch reports whether page is mapped, restamping it and swapping it
// to slot 0 on a hit.
func (r *refTLB) touch(page, now int64) bool {
	w := r.probe(page)
	if w < 0 {
		return false
	}
	r.pages[w], r.stamps[w] = r.pages[0], r.stamps[0]
	r.pages[0], r.stamps[0] = page, now
	return true
}

// insert maps page over the first empty slot or the smallest stamp.
func (r *refTLB) insert(page, now int64) {
	victim := 0
	for w := range r.pages {
		if r.pages[w] < 0 {
			victim = w
			break
		}
		if r.stamps[w] < r.stamps[victim] {
			victim = w
		}
	}
	r.pages[victim], r.stamps[victim] = page, now
}

// fuzzPageSizes are the page sizes FuzzTLB picks from: the shift path
// and the division path, down to one-byte pages.
var fuzzPageSizes = []int64{4096, 8192, 1, 7, 3000, 12345, 1 << 20}

// FuzzTLB drives a hierarchy's TLB and refTLB with the same page
// stream and requires the same hit/miss answer at every access, and
// the same residency on every prefetch-drop check. The first byte
// picks a capacity in 1..64, the second a page size; each following
// pair is an operation and a page selector. Selectors reach 96 low
// pages and the four highest pages of the 32-bit address space; the
// in-page offset is clamped so every address stays below
// memsys.AddrSpaceLimit, as the simulator's addresses do.
// The reference is stamped with the hierarchy's clock, which must
// strictly increase between accesses (the L1 costs one cycle), as it
// does on every shipped geometry.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 3, 3, 1})
	f.Add([]byte{2, 4, 0, 10, 0, 20, 0, 30, 0, 10, 0, 30, 0, 40, 3, 20, 3, 10})
	f.Add([]byte{0, 2, 0, 5, 0, 6, 1, 5, 0, 7, 3, 6, 2, 5})
	f.Add([]byte{3, 1, 0, 96, 0, 97, 0, 98, 0, 99, 1, 96, 0, 0, 3, 97, 3, 99})
	seq := []byte{63, 5}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%5), byte(i*37))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		entries := int(data[0])%64 + 1
		ps := fuzzPageSizes[int(data[1])%len(fuzzPageSizes)]
		h := New(tlbTestConfig(TLBConfig{Entries: entries, PageSize: ps, Penalty: 3}))
		ref := newRefTLB(entries)
		ceilPage := (memsys.AddrSpaceLimit - 1) / ps
		prev := int64(-1)
		for i := 2; i+1 < len(data); i += 2 {
			op, sel := data[i], int64(data[i+1])
			page := sel % 100
			if page >= 96 {
				page = ceilPage - (page - 96)
			}
			addr := memsys.Addr(page*ps + min(sel%ps, memsys.AddrSpaceLimit-1-page*ps))
			switch op % 4 {
			case 3: // prefetch-drop check: residency without a refresh
				if got, want := h.tlb.pages.Contains(page), ref.probe(page) >= 0; got != want {
					t.Fatalf("op %d: page %d resident = %v, reference %v", i/2, page, got, want)
				}
				continue
			case 2:
				h.Tick(int64(op) / 4)
			}
			now := h.Now()
			if now <= prev {
				t.Fatalf("op %d: clock %d did not advance past %d", i/2, now, prev)
			}
			prev = now
			misses := h.stats.TLBMisses
			h.Access(addr, 1, Load)
			got := h.stats.TLBMisses == misses
			want := ref.touch(page, now)
			if !want {
				ref.insert(page, now)
			}
			if got != want {
				t.Fatalf("op %d: page %d hit = %v, reference %v", i/2, page, got, want)
			}
		}
	})
}
