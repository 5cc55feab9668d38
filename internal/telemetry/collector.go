package telemetry

import (
	"math/bits"

	"ccl/internal/cache"
	"ccl/internal/flat"
	"ccl/internal/memsys"
)

// levelTel is one cache level's telemetry state.
type levelTel struct {
	name       string
	blockShift uint      // log2(BlockSize); block sizes are validated powers of two
	shadow     *flat.LRU // same capacity, fully associative
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
			shadow:     flat.NewLRU(int(lc.Size / lc.BlockSize)),
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
		resident := lt.shadow.Touch(blk)
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
