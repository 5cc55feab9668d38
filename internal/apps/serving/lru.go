package serving

import (
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// LRUPlacement selects the allocator that places LRU entries.
type LRUPlacement int

const (
	// LRUMalloc places entries conventionally.
	LRUMalloc LRUPlacement = iota
	// LRUCCMalloc hint-chains each new entry onto the current MRU
	// head, so recency-adjacent entries cluster into shared blocks —
	// the paper's co-location heuristic applied to temporal locality.
	LRUCCMalloc
)

// String names the placement.
func (p LRUPlacement) String() string {
	switch p {
	case LRUMalloc:
		return "malloc"
	case LRUCCMalloc:
		return "ccmalloc"
	default:
		return fmt.Sprintf("LRUPlacement(%d)", int(p))
	}
}

// Entry geometry. The intrusive list links lead the entry so a
// move-to-front touches the first bytes only; the co-located layout
// appends the payload, the split layout replaces it with a pointer
// into a separate cold allocation.
//
// co-located entry: prev(4) next(4) key(4) pad(4) value(24)  = 40 B
// split link:       prev(4) next(4) key(4) valptr(4)         = 16 B
const (
	lruOffPrev = 0
	lruOffNext = 4
	lruOffKey  = 8
	lruOffVal  = 12 // split: value pointer; co-located: pad

	// LRUValueBytes is the payload carried per cached key.
	LRUValueBytes = 24
	lruValueWords = LRUValueBytes / 8
	lruEntrySize  = 16 + LRUValueBytes
	lruLinkSize   = 16
)

// Index slot: one 64-bit word, key in the low half, the entry address
// in the high half. Address 0 is an empty slot, address 1 a
// tombstone; real entry addresses start at the arena base.
const (
	lruIdxEmpty = 0
	lruIdxTomb  = 1
)

// LRUConfig configures a cache.
type LRUConfig struct {
	// Capacity is the maximum resident entry count; an insert at
	// capacity evicts the tail.
	Capacity int64
	// Split moves payloads out of the entries into a separate cold
	// allocation, leaving a dense 16-byte link node on the hot path.
	Split     bool
	Placement LRUPlacement
	// IndexSlots sizes the open-addressing key index: a power of two,
	// at least 2*Capacity. 0 selects the smallest power of two at or
	// above 4*Capacity.
	IndexSlots int64
	// PlaceGuard, when set, is consulted before every hinted entry
	// placement (LRUCCMalloc). A veto degrades that placement to the
	// conventional path — the op succeeds — mirroring ccmalloc's own
	// degradation contract.
	PlaceGuard func() error
}

// LRUStats summarizes a cache.
type LRUStats struct {
	Len, Capacity      int64
	Hits, Misses       int64
	Inserts, Evictions int64
	Rebuilds           int64 // index tombstone purges
	PlaceDegraded      int64 // hinted placements vetoed by the guard
	IndexTombs         int64
	HeapBytes          int64
}

// LRU is an intrusive least-recently-used cache over the simulated
// heap: a doubly-linked recency list threaded through heap-allocated
// entries, plus an open-addressing index from key to entry address.
// All runtime accesses go through the machine.Mem seam.
type LRU struct {
	m     machine.Mem
	arena *memsys.Arena
	cfg   LRUConfig

	entryAlloc heap.Allocator // entries or link nodes
	valAlloc   heap.Allocator // split payloads
	idxAlloc   heap.Allocator // header + index generations

	hdr      memsys.Addr // head(4) tail(4)
	idx      memsys.Addr
	idxSlots int64
	idxMask  int64
	idxTombs int64
	len      int64

	hits, misses, inserts, evictions, rebuilds, placeDegraded int64
}

// NewLRU builds an empty cache over m's arena. Configuration errors
// are typed cclerr.ErrInvalidArg; allocation failures propagate the
// allocator's typed error.
func NewLRU(m *machine.Machine, cfg LRUConfig) (*LRU, error) {
	if cfg.Capacity < 1 || cfg.Capacity > 1<<20 {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewLRU: capacity %d outside [1, %d]", cfg.Capacity, 1<<20)
	}
	slots := cfg.IndexSlots
	if slots == 0 {
		slots = 4
		for slots < 4*cfg.Capacity {
			slots *= 2
		}
	}
	if slots&(slots-1) != 0 || slots < 2*cfg.Capacity {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewLRU: index slots %d must be a power of two >= 2*capacity", slots)
	}
	c := &LRU{m: m, arena: m.Arena, cfg: cfg, idxSlots: slots, idxMask: slots - 1}
	c.idxAlloc = heap.New(m.Arena)
	switch cfg.Placement {
	case LRUMalloc:
		c.entryAlloc = heap.New(m.Arena)
	case LRUCCMalloc:
		a, err := ccmalloc.New(m.Arena, layout.FromLevel(m.Cache.LastLevel()), ccmalloc.Closest, m)
		if err != nil {
			return nil, err
		}
		c.entryAlloc = a
	default:
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serving: NewLRU: unknown placement %d", int(cfg.Placement))
	}
	if cfg.Split {
		c.valAlloc = heap.New(m.Arena)
	}
	hdr, err := c.idxAlloc.Alloc(8)
	if err != nil {
		return nil, err
	}
	c.hdr = hdr
	idx, err := c.idxAlloc.Alloc(slots * 8)
	if err != nil {
		return nil, err
	}
	c.idx = idx
	w := ArenaMem(m.Arena)
	w.StoreAddr(hdr.Add(0), memsys.NilAddr)
	w.StoreAddr(hdr.Add(4), memsys.NilAddr)
	for i := int64(0); i < slots; i++ {
		w.StoreInt(idx.Add(i*8), 0)
	}
	return c, nil
}

// UseMem redirects the cache's runtime accesses through w, any
// machine.Mem over the same arena — typically an uncharged ArenaMem
// view, so a twin replays the same operations without moving the
// clock. Construction and allocator metadata are unaffected.
func (c *LRU) UseMem(w machine.Mem) { c.m = w }

func lruIdxWord(key uint32, addr memsys.Addr) int64 {
	return int64(key) | int64(addr)<<32
}

// idxLookup probes the index for key, charging one load and one
// compare cycle per step.
func (c *LRU) idxLookup(base memsys.Addr, key uint32) (slot int64, e memsys.Addr, ok bool) {
	i := kvHash(key) & c.idxMask
	for {
		c.m.Tick(1)
		wrd := c.m.LoadInt(base.Add(i * 8))
		a := memsys.Addr(wrd >> 32)
		if a == lruIdxEmpty {
			return 0, memsys.NilAddr, false
		}
		if a != lruIdxTomb && uint32(wrd) == key {
			return i, a, true
		}
		i = (i + 1) & c.idxMask
	}
}

// idxInsert stores key -> e at the first reusable slot. The caller
// has already established key is absent; capacity invariants
// (len <= idxSlots/2, tombs <= idxSlots/4) guarantee a slot exists.
func (c *LRU) idxInsert(base memsys.Addr, key uint32, e memsys.Addr) {
	i := kvHash(key) & c.idxMask
	for {
		c.m.Tick(1)
		wrd := c.m.LoadInt(base.Add(i * 8))
		a := memsys.Addr(wrd >> 32)
		if a == lruIdxEmpty || a == lruIdxTomb {
			if a == lruIdxTomb && base == c.idx {
				c.idxTombs--
			}
			c.m.StoreInt(base.Add(i*8), lruIdxWord(key, e))
			return
		}
		i = (i + 1) & c.idxMask
	}
}

// idxDelete tombstones key.
func (c *LRU) idxDelete(key uint32) {
	i, _, ok := c.idxLookup(c.idx, key)
	if ok {
		c.m.StoreInt(c.idx.Add(i*8), lruIdxWord(0, lruIdxTomb))
		c.idxTombs++
	}
}

// valueBase resolves the payload address of entry e, chasing the
// value pointer under the split layout.
func (c *LRU) valueBase(e memsys.Addr) memsys.Addr {
	if c.cfg.Split {
		return c.m.LoadAddr(e.Add(lruOffVal))
	}
	return e.Add(16)
}

func (c *LRU) writeValue(e memsys.Addr, key uint32, val int64) {
	base := c.valueBase(e)
	salt := kvSalt(key)
	for j := int64(0); j < lruValueWords; j++ {
		c.m.StoreInt(base.Add(j*8), val^(salt*j))
	}
}

func (c *LRU) readValue(e memsys.Addr) int64 {
	base := c.valueBase(e)
	v := c.m.LoadInt(base)
	for j := int64(1); j < lruValueWords; j++ {
		_ = c.m.LoadInt(base.Add(j * 8))
	}
	return v
}

// moveToFront rotates e to the MRU position.
func (c *LRU) moveToFront(e memsys.Addr) {
	head := c.m.LoadAddr(c.hdr)
	if head == e {
		return
	}
	prev := c.m.LoadAddr(e.Add(lruOffPrev))
	next := c.m.LoadAddr(e.Add(lruOffNext))
	c.m.StoreAddr(prev.Add(lruOffNext), next)
	if !next.IsNil() {
		c.m.StoreAddr(next.Add(lruOffPrev), prev)
	} else {
		c.m.StoreAddr(c.hdr.Add(4), prev)
	}
	c.m.StoreAddr(e.Add(lruOffPrev), memsys.NilAddr)
	c.m.StoreAddr(e.Add(lruOffNext), head)
	c.m.StoreAddr(head.Add(lruOffPrev), e)
	c.m.StoreAddr(c.hdr, e)
}

// pushFront links a fresh entry at the MRU position.
func (c *LRU) pushFront(e memsys.Addr) {
	head := c.m.LoadAddr(c.hdr)
	c.m.StoreAddr(e.Add(lruOffPrev), memsys.NilAddr)
	c.m.StoreAddr(e.Add(lruOffNext), head)
	if !head.IsNil() {
		c.m.StoreAddr(head.Add(lruOffPrev), e)
	} else {
		c.m.StoreAddr(c.hdr.Add(4), e)
	}
	c.m.StoreAddr(c.hdr, e)
}

// evictTail removes the LRU entry and frees its allocations.
func (c *LRU) evictTail() error {
	tail := c.m.LoadAddr(c.hdr.Add(4))
	key := c.m.Load32(tail.Add(lruOffKey))
	c.idxDelete(key)
	prev := c.m.LoadAddr(tail.Add(lruOffPrev))
	if !prev.IsNil() {
		c.m.StoreAddr(prev.Add(lruOffNext), memsys.NilAddr)
	} else {
		c.m.StoreAddr(c.hdr, memsys.NilAddr)
	}
	c.m.StoreAddr(c.hdr.Add(4), prev)
	if c.cfg.Split {
		vp := c.m.LoadAddr(tail.Add(lruOffVal))
		if err := c.valAlloc.Free(vp); err != nil {
			return err
		}
	}
	if err := c.entryAlloc.Free(tail); err != nil {
		return err
	}
	c.len--
	c.evictions++
	return nil
}

// allocEntry places a new entry (and, split, its payload). A place
// guard veto degrades the hinted placement to conventional; an
// allocation failure frees any partial placement and returns the
// typed error with the cache untouched.
func (c *LRU) allocEntry() (e, vp memsys.Addr, err error) {
	size := int64(lruEntrySize)
	if c.cfg.Split {
		size = lruLinkSize
	}
	hint := memsys.NilAddr
	if c.cfg.Placement == LRUCCMalloc {
		hint = c.arena.LoadAddr(c.hdr)
		if !hint.IsNil() && c.cfg.PlaceGuard != nil {
			if verr := c.cfg.PlaceGuard(); verr != nil {
				hint = memsys.NilAddr
				c.placeDegraded++
			}
		}
	}
	if hint.IsNil() {
		e, err = c.entryAlloc.Alloc(size)
	} else {
		e, err = c.entryAlloc.AllocHint(size, hint)
	}
	if err != nil {
		return memsys.NilAddr, memsys.NilAddr, err
	}
	if c.cfg.Split {
		vp, err = c.valAlloc.Alloc(LRUValueBytes)
		if err != nil {
			_ = c.entryAlloc.Free(e)
			return memsys.NilAddr, memsys.NilAddr, err
		}
	}
	return e, vp, nil
}

// rebuildIndex purges tombstones by building a fresh index generation
// and reinserting every resident key from the recency list —
// copy-then-commit, so an allocation failure leaves the old index
// serving.
func (c *LRU) rebuildIndex() error {
	ni, err := c.idxAlloc.Alloc(c.idxSlots * 8)
	if err != nil {
		return fmt.Errorf("serving: lru index rebuild: %w", err)
	}
	for i := int64(0); i < c.idxSlots; i++ {
		c.m.StoreInt(ni.Add(i*8), 0)
	}
	for e := c.m.LoadAddr(c.hdr); !e.IsNil(); e = c.m.LoadAddr(e.Add(lruOffNext)) {
		key := c.m.Load32(e.Add(lruOffKey))
		c.idxInsert(ni, key, e)
	}
	old := c.idx
	c.idx = ni
	c.idxTombs = 0
	c.rebuilds++
	return c.idxAlloc.Free(old)
}

// Get looks key up; a hit rotates the entry to the MRU position and
// reads the full payload.
func (c *LRU) Get(key uint32) (int64, bool) {
	c.m.Tick(1)
	_, e, ok := c.idxLookup(c.idx, key)
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(e)
	return c.readValue(e), true
}

// Put inserts or refreshes key, evicting the LRU entry when at
// capacity. Failures (allocation, rebuild) are typed and leave the
// cache consistent.
func (c *LRU) Put(key uint32, val int64) error {
	c.m.Tick(1)
	if _, e, ok := c.idxLookup(c.idx, key); ok {
		c.writeValue(e, key, val)
		c.moveToFront(e)
		return nil
	}
	if c.idxTombs*4 > c.idxSlots {
		if err := c.rebuildIndex(); err != nil {
			return err
		}
	}
	e, vp, err := c.allocEntry()
	if err != nil {
		return err
	}
	if c.len >= c.cfg.Capacity {
		if eerr := c.evictTail(); eerr != nil {
			return eerr
		}
	}
	c.m.Store32(e.Add(lruOffKey), key)
	if c.cfg.Split {
		c.m.StoreAddr(e.Add(lruOffVal), vp)
	} else {
		c.m.Store32(e.Add(lruOffVal), 0)
	}
	c.writeValue(e, key, val)
	c.idxInsert(c.idx, key, e)
	c.pushFront(e)
	c.len++
	c.inserts++
	return nil
}

// Len returns the resident entry count.
func (c *LRU) Len() int64 { return c.len }

// Stats summarizes the cache.
func (c *LRU) Stats() LRUStats {
	hb := c.entryAlloc.HeapBytes() + c.idxAlloc.HeapBytes()
	if c.valAlloc != nil {
		hb += c.valAlloc.HeapBytes()
	}
	return LRUStats{
		Len: c.len, Capacity: c.cfg.Capacity,
		Hits: c.hits, Misses: c.misses,
		Inserts: c.inserts, Evictions: c.evictions,
		Rebuilds: c.rebuilds, PlaceDegraded: c.placeDegraded,
		IndexTombs: c.idxTombs, HeapBytes: hb,
	}
}

// entryAddrs walks the recency list MRU-first through the arena.
func (c *LRU) entryAddrs() []memsys.Addr {
	w := ArenaMem(c.arena)
	var out []memsys.Addr
	for e := w.LoadAddr(c.hdr); !e.IsNil(); e = w.LoadAddr(e.Add(lruOffNext)) {
		out = append(out, e)
	}
	return out
}

// RegisterRegions registers the cache's extents with rm and returns
// the label of the recency-hot region ("<prefix>.entries"). Entries
// are registered per element at their current addresses; eviction
// churn recycles freed entries through the allocator's free lists, so
// the registration stays representative through a measured phase.
func (c *LRU) RegisterRegions(rm *telemetry.RegionMap, prefix string) string {
	rm.Register(prefix+".head", c.hdr, 8)
	rm.Register(prefix+".index", c.idx, c.idxSlots*8)
	entries := c.entryAddrs()
	label := prefix + ".entries"
	if c.cfg.Split {
		rm.RegisterElems(label, entries, lruLinkSize)
		rm.SetFieldMap(label, layout.MustFieldMap("lru-link", lruLinkSize,
			layout.Field{Name: "prev", Offset: lruOffPrev, Size: 4},
			layout.Field{Name: "next", Offset: lruOffNext, Size: 4},
			layout.Field{Name: "key", Offset: lruOffKey, Size: 4},
			layout.Field{Name: "valptr", Offset: lruOffVal, Size: 4},
		))
		w := ArenaMem(c.arena)
		vals := make([]memsys.Addr, 0, len(entries))
		for _, e := range entries {
			vals = append(vals, w.LoadAddr(e.Add(lruOffVal)))
		}
		rm.RegisterElems(prefix+".values", vals, LRUValueBytes)
		rm.SetFieldMap(prefix+".values", layout.MustFieldMap("lru-value", LRUValueBytes,
			layout.Field{Name: "value", Offset: 0, Size: LRUValueBytes},
		))
		return label
	}
	rm.RegisterElems(label, entries, lruEntrySize)
	rm.SetFieldMap(label, layout.MustFieldMap("lru-entry", lruEntrySize,
		layout.Field{Name: "prev", Offset: lruOffPrev, Size: 4},
		layout.Field{Name: "next", Offset: lruOffNext, Size: 4},
		layout.Field{Name: "key", Offset: lruOffKey, Size: 4},
		layout.Field{Name: "value", Offset: 16, Size: LRUValueBytes},
	))
	return label
}

// CheckInvariants verifies the cache against simulated memory without
// charging the cache hierarchy: the recency list is a consistent
// doubly-linked chain of len unique keys, the index maps exactly the
// resident keys to their entries, payloads carry their key's salt,
// and counters match a full scan. Violations fail with
// cclerr.ErrCorruptStructure.
func (c *LRU) CheckInvariants() error {
	w := ArenaMem(c.arena)
	head := w.LoadAddr(c.hdr)
	tail := w.LoadAddr(c.hdr.Add(4))
	seen := make(map[uint32]memsys.Addr)
	var prev memsys.Addr = memsys.NilAddr
	count := int64(0)
	for e := head; !e.IsNil(); e = w.LoadAddr(e.Add(lruOffNext)) {
		if got := w.LoadAddr(e.Add(lruOffPrev)); got != prev {
			return cclerr.Errorf(cclerr.ErrCorruptStructure,
				"serving: lru entry %v: prev link %v, want %v", e, got, prev)
		}
		key := w.Load32(e.Add(lruOffKey))
		if _, dup := seen[key]; dup {
			return cclerr.Errorf(cclerr.ErrCorruptStructure, "serving: lru key %d resident twice", key)
		}
		seen[key] = e
		base := e.Add(16)
		if c.cfg.Split {
			base = w.LoadAddr(e.Add(lruOffVal))
			if !c.arena.Mapped(base, LRUValueBytes) {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: lru entry %v: value pointer %v unmapped", e, base)
			}
		}
		v := w.LoadInt(base)
		salt := kvSalt(key)
		for j := int64(1); j < lruValueWords; j++ {
			if got := w.LoadInt(base.Add(j * 8)); got != v^(salt*j) {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: lru key %d: payload word %d is %#x, want %#x", key, j, got, v^(salt*j))
			}
		}
		prev = e
		if count++; count > c.len {
			return cclerr.Errorf(cclerr.ErrCorruptStructure,
				"serving: lru list longer than len %d (cycle?)", c.len)
		}
	}
	if prev != tail {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: lru tail is %v, list ends at %v", tail, prev)
	}
	if count != c.len {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: lru len %d, list holds %d", c.len, count)
	}
	if c.len > c.cfg.Capacity {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: lru len %d over capacity %d", c.len, c.cfg.Capacity)
	}
	idxLive, idxTombs := int64(0), int64(0)
	for i := int64(0); i < c.idxSlots; i++ {
		wrd := w.LoadInt(c.idx.Add(i * 8))
		a := memsys.Addr(wrd >> 32)
		switch a {
		case lruIdxEmpty:
		case lruIdxTomb:
			idxTombs++
		default:
			idxLive++
			key := uint32(wrd)
			if e, ok := seen[key]; !ok || e != a {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: lru index maps key %d to %v, list has %v", key, a, e)
			}
		}
	}
	if idxLive != c.len || idxTombs != c.idxTombs {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: lru index live=%d tombs=%d, counters say live=%d tombs=%d",
			idxLive, idxTombs, c.len, c.idxTombs)
	}
	return nil
}
