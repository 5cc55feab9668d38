package telemetry

import (
	"math/bits"

	"ccl/internal/cache"
	"ccl/internal/flat"
	"ccl/internal/memsys"
)

// lruSet is a fixed-capacity fully-associative LRU set over block
// numbers: the shadow cache the 3C classifier compares the real
// (set-indexed) cache against. Entries live in parallel slot arrays,
// linked into a recency list by slot number and found through an
// open-addressing index, so touch is O(1). The arrays grow with the
// resident count until the set is full; from then on touch recycles
// the LRU slot and allocates nothing.
type lruSet struct {
	capacity   int
	block      []int64 // slot -> resident block; slots fill in order, then recycle
	prev, next []int32 // recency links between slots; -1 ends the list
	head, tail int32   // most / least recently used slot; -1 when empty

	// index maps block -> slot by linear probing over a power-of-two
	// table at most a quarter full, which keeps probe runs short, and
	// deletes by backward shift so no tombstones accumulate under churn.
	index []lruBucket
	shift uint // 64 - log2(len(index)): the hash keeps the product's top bits
}

// lruBucket is one index bucket. The block sits beside its slot so a
// probe reads one line; ref is slot+1, so the zero bucket is empty.
type lruBucket struct {
	block int64
	ref   int32
}

func newLRUSet(capacity int) *lruSet {
	if capacity < 1 {
		capacity = 1
	}
	// Start with four buckets (shift 64-2); touch doubles the index as
	// blocks arrive, so a shadow that never fills stays small.
	return &lruSet{capacity: capacity, head: -1, tail: -1, index: make([]lruBucket, 4), shift: 62}
}

// grow doubles the index and reinserts every resident block.
func (s *lruSet) grow() {
	s.index = make([]lruBucket, 2*len(s.index))
	s.shift--
	for slot, b := range s.block {
		i, _ := s.find(b)
		s.index[i] = lruBucket{block: b, ref: int32(slot) + 1}
	}
}

// home is block's first index bucket: a Fibonacci hash, whose top bits
// mix every bit of the block number.
func (s *lruSet) home(block int64) uint64 {
	return uint64(block) * 0x9e3779b97f4a7c15 >> s.shift
}

// find returns the bucket holding block, or the empty bucket that
// ended its probe run when block is absent.
func (s *lruSet) find(block int64) (uint64, bool) {
	mask := uint64(len(s.index) - 1)
	for i := s.home(block); ; i = (i + 1) & mask {
		b := &s.index[i]
		if b.ref == 0 {
			return i, false
		}
		if b.block == block {
			return i, true
		}
	}
}

// remove empties bucket i by backward-shift deletion: each later
// entry of the probe run whose home lies at or before the hole moves
// back into it, so lookups never need a tombstone. It returns the
// empty bucket that ended the run.
func (s *lruSet) remove(i uint64) uint64 {
	mask := uint64(len(s.index) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		b := s.index[j]
		if b.ref == 0 {
			s.index[i] = lruBucket{}
			return j
		}
		if (j-s.home(b.block))&mask >= (j-i)&mask {
			s.index[i] = b
			i = j
		}
	}
}

func (s *lruSet) contains(block int64) bool {
	_, ok := s.find(block)
	return ok
}

// touch makes block the most recently used entry, inserting it (and
// evicting the LRU entry if full) when absent. It reports whether
// block was resident before the call.
func (s *lruSet) touch(block int64) bool {
	if s.head >= 0 && s.block[s.head] == block {
		// Already MRU, the common case on pointer walks: a node's key
		// load and its child-pointer load share a block.
		return true
	}
	pos, ok := s.find(block)
	if ok {
		slot := s.index[pos].ref - 1
		s.unlink(slot)
		s.pushFront(slot)
		return true
	}
	slot := int32(len(s.block))
	if len(s.block) < s.capacity {
		s.block = append(s.block, block)
		s.prev = append(s.prev, 0)
		s.next = append(s.next, 0)
	} else {
		// Recycle the LRU slot. Its deletion shifts only its own probe
		// run; pos, where block's probe stopped, moves only if that run
		// is block's run too.
		slot = s.tail
		s.unlink(slot)
		victim, _ := s.find(s.block[slot])
		if s.remove(victim) == pos {
			pos, _ = s.find(block)
		}
	}
	s.block[slot] = block
	s.index[pos] = lruBucket{block: block, ref: slot + 1}
	s.pushFront(slot)
	if 4*len(s.block) > len(s.index) {
		s.grow()
	}
	return false
}

func (s *lruSet) unlink(slot int32) {
	p, n := s.prev[slot], s.next[slot]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

func (s *lruSet) pushFront(slot int32) {
	s.prev[slot] = -1
	s.next[slot] = s.head
	if s.head >= 0 {
		s.prev[s.head] = slot
	} else {
		s.tail = slot
	}
	s.head = slot
}

// levelTel is one cache level's telemetry state.
type levelTel struct {
	name       string
	blockShift uint      // log2(BlockSize); block sizes are validated powers of two
	shadow     *lruSet   // same capacity, fully associative
	seen       flat.Bits // blocks ever referenced at this level

	accesses      int64
	hits          int64
	misses        int64
	classes       [NumClasses]int64 // indexed by MissClass
	fills         int64
	prefetchFills int64
}

// heatCounters are the per-set counters of the last-level cache.
type heatCounters struct {
	sets       int64
	blockShift uint
	accesses   []int64
	misses     []int64
	conflicts  []int64
	evictions  []int64
}

// Collector implements cache.Observer: it classifies every demand
// miss (3C), maintains last-level per-set heatmaps, and charges
// misses to registered address regions. Build one per measurement
// phase via NewCollector/Attach; Reset discards counts but keeps the
// shadow caches' contents (mirroring Hierarchy.ResetStats, so
// steady-state phases can be measured without a cold shadow).
type Collector struct {
	cfg     cache.Config
	levels  []*levelTel
	heat    heatCounters
	regions *RegionMap

	// lastLL/lastCls record whether the most recent OnAccess missed
	// the last level and its 3C class — the per-access seam the
	// sampling profiler (internal/profile) reads after forwarding an
	// event, so field-level classification reuses this collector's
	// shadow caches instead of running a second shadow simulation.
	lastLL  bool
	lastCls MissClass

	// inval marks coherence granules a remote core's store
	// invalidated while this core held them (MarkInvalidated, wired
	// from a topology's directory hooks). The next miss on a marked
	// granule classifies as Coherence instead of consulting the
	// shadow caches; the mark is then consumed. A set with no page
	// (the default) is the single-core case, tested once per access.
	inval    flat.Bits
	cohShift uint
}

var _ cache.Observer = (*Collector)(nil)

// NewCollector builds a collector for a hierarchy with configuration
// cfg. Attach it with Hierarchy.SetObserver (or use Attach).
func NewCollector(cfg cache.Config) *Collector {
	c := &Collector{cfg: cfg, regions: NewRegionMap(len(cfg.Levels))}
	for _, lc := range cfg.Levels {
		c.levels = append(c.levels, &levelTel{
			name:       lc.Name,
			blockShift: uint(bits.TrailingZeros64(uint64(lc.BlockSize))),
			shadow:     newLRUSet(int(lc.Size / lc.BlockSize)),
		})
	}
	last := cfg.Levels[len(cfg.Levels)-1]
	c.heat = heatCounters{
		sets:       last.Sets(),
		blockShift: uint(bits.TrailingZeros64(uint64(last.BlockSize))),
		accesses:   make([]int64, last.Sets()),
		misses:     make([]int64, last.Sets()),
		conflicts:  make([]int64, last.Sets()),
		evictions:  make([]int64, last.Sets()),
	}
	return c
}

// Regions returns the collector's region map, for registering labeled
// address ranges misses should be attributed to.
func (c *Collector) Regions() *RegionMap { return c.regions }

// Reset zeroes every counter (level, heatmap, and region) without
// clearing the shadow caches or the region registrations, so a
// steady-state phase can be isolated the way Hierarchy.ResetStats
// isolates cycle counts.
func (c *Collector) Reset() {
	for _, lt := range c.levels {
		lt.accesses, lt.hits, lt.misses = 0, 0, 0
		lt.classes = [NumClasses]int64{}
		lt.fills, lt.prefetchFills = 0, 0
	}
	for i := range c.heat.accesses {
		c.heat.accesses[i] = 0
		c.heat.misses[i] = 0
		c.heat.conflicts[i] = 0
		c.heat.evictions[i] = 0
	}
	c.regions.reset()
	c.lastLL, c.lastCls = false, Compulsory
}

// classify assigns the 3C class of a miss on a block, given whether
// the level had referenced the block before this access and whether
// the shadow cache held it.
func classify(seen, resident bool) MissClass {
	if !seen {
		return Compulsory
	}
	if resident {
		// A fully-associative cache of the same capacity would have
		// hit: the set mapping is at fault.
		return Conflict
	}
	return Capacity
}

// OnAccess implements cache.Observer.
func (c *Collector) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	last := len(c.levels) - 1
	c.lastLL = false
	reg := c.regions.find(addr)
	reg.accesses++
	// A pending invalidation mark overrides the 3C shadow verdict:
	// the block is gone because a remote store took it, whatever the
	// shadow caches think. Consumed below once any level misses.
	coherent := false
	if !c.inval.Empty() { // no mark ever: every single-core run
		coherent = c.inval.Test(int64(addr) >> c.cohShift)
	}
	consumed := false
	for i, lt := range c.levels {
		if hitLevel != -1 && i > hitLevel {
			break
		}
		lt.accesses++
		blk := int64(addr >> lt.blockShift)
		seen := lt.seen.TestAndSet(blk)
		resident := lt.shadow.touch(blk)
		missed := i != hitLevel
		var cls MissClass
		if missed {
			lt.misses++
			cls = classify(seen, resident)
			if coherent {
				cls = Coherence
				consumed = true
			}
			lt.classes[cls]++
			reg.misses[i]++
		} else {
			lt.hits++
		}
		if i == last {
			set := blk % c.heat.sets
			c.heat.accesses[set]++
			if missed {
				c.lastLL, c.lastCls = true, cls
				reg.classes[cls]++
				c.heat.misses[set]++
				if cls == Conflict {
					c.heat.conflicts[set]++
				}
			}
		}
	}
	if consumed {
		c.inval.Clear(int64(addr) >> c.cohShift)
	}
}

// OnEvict implements cache.Observer.
func (c *Collector) OnEvict(level int, addr memsys.Addr, dirty bool) {
	if level == len(c.levels)-1 {
		set := int64(addr>>c.heat.blockShift) % c.heat.sets
		c.heat.evictions[set]++
	}
}

// OnFill implements cache.Observer.
func (c *Collector) OnFill(level int, addr memsys.Addr, prefetch bool) {
	lt := c.levels[level]
	lt.fills++
	if prefetch {
		lt.prefetchFills++
	}
}

// LastLLMissClass reports whether the most recent OnAccess missed the
// last cache level, and if so that miss's 3C class. The sampling
// profiler calls it immediately after forwarding an access, so one
// shadow simulation serves both the aggregate counters and the
// per-field classification.
func (c *Collector) LastLLMissClass() (MissClass, bool) { return c.lastCls, c.lastLL }

// MarkInvalidated records that a remote core's store invalidated the
// span-byte coherence granule at addr while this collector's core
// held it. The granule's next miss (at every level it misses)
// classifies as Coherence, and the invalidation is charged to the
// region containing the granule base. machine.Topology wires this to
// the directory's per-core invalidation hooks; span is the coherence
// granule (a power of two) and is fixed on first call.
func (c *Collector) MarkInvalidated(addr memsys.Addr, span int64) {
	if c.inval.Empty() {
		c.cohShift = uint(bits.TrailingZeros64(uint64(span)))
	}
	c.inval.Set(int64(addr) >> c.cohShift)
	c.regions.find(addr).invalidations++
}

// Misses returns the 4C breakdown of demand misses at level i.
// Coherence is always zero for collectors never fed invalidation
// marks (every single-core run).
func (c *Collector) Misses(i int) (compulsory, capacity, conflict, coherence int64) {
	cl := c.levels[i].classes
	return cl[Compulsory], cl[Capacity], cl[Conflict], cl[Coherence]
}
