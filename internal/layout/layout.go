// Package layout holds the placement arithmetic shared by ccmorph,
// ccmalloc, and the cache-conscious tree implementations: mapping
// addresses to cache sets, carving a colored virtual address space
// (paper §2.2, Figure 2), the one hot/cold placement policy built on
// it (Blocks), and computing subtree-clustering parameters (paper
// §2.1, §5.3).
package layout

import (
	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// Geometry describes the cache level that placement targets —
// normally the last-level (L2) cache, per §3.2.1.
type Geometry struct {
	Sets      int64
	Assoc     int
	BlockSize int64
}

// FromLevel extracts placement geometry from a cache level config.
func FromLevel(lc cache.LevelConfig) Geometry {
	return Geometry{Sets: lc.Sets(), Assoc: lc.Assoc, BlockSize: lc.BlockSize}
}

// Capacity returns the level's capacity in bytes.
func (g Geometry) Capacity() int64 { return g.Sets * int64(g.Assoc) * g.BlockSize }

// SetOf returns the cache set that addr maps to.
func (g Geometry) SetOf(addr memsys.Addr) int64 {
	return (int64(addr) / g.BlockSize) % g.Sets
}

// BlockAlign rounds addr down to its block boundary.
func (g Geometry) BlockAlign(addr memsys.Addr) memsys.Addr {
	return memsys.Addr(int64(addr) &^ (g.BlockSize - 1))
}

// NodesPerBlock returns k = floor(b/e), the number of structure
// elements of size elem that fit in one cache block (paper §5.3).
func (g Geometry) NodesPerBlock(elem int64) int64 {
	if elem <= 0 {
		// Panic justification: every caller (PlanSubtrees, ccmorph
		// layout validation, B-tree sizing) validates the element size
		// before reaching this arithmetic helper; a non-positive size
		// here means the validation layer itself is broken.
		panic("layout: element size must be positive")
	}
	k := g.BlockSize / elem
	if k < 1 {
		k = 1
	}
	return k
}

// Coloring describes a two-color partition of the cache: the first
// HotSets sets hold frequently-accessed elements, the remaining sets
// hold everything else (paper Figure 2).
type Coloring struct {
	Geometry
	HotSets int64
}

// NewColoring partitions geometry g with fraction frac of the sets
// (0 < frac < 1) reserved for hot elements. The paper's experiments
// use one half (§5.4: "half the L2 cache capacity ... colored into a
// unique portion"). A fraction outside (0,1) fails with
// cclerr.ErrInvalidArg; a geometry with fewer than two sets cannot be
// two-colored and fails with cclerr.ErrBadGeometry.
func NewColoring(g Geometry, frac float64) (Coloring, error) {
	if frac <= 0 || frac >= 1 {
		return Coloring{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: coloring fraction %v out of (0,1)", frac)
	}
	if g.Sets < 2 {
		return Coloring{}, cclerr.Errorf(cclerr.ErrBadGeometry,
			"layout: cannot two-color a cache with %d set(s)", g.Sets)
	}
	hot := int64(float64(g.Sets) * frac)
	if hot < 1 {
		hot = 1
	}
	if hot >= g.Sets {
		hot = g.Sets - 1
	}
	return Coloring{Geometry: g, HotSets: hot}, nil
}

// HotCapacityNodes returns how many elements of size elem the hot
// region can hold without self-conflict: p sets x assoc ways x k
// nodes per block — the paper's (c/2 x |_b/e_| x a) with p = c/2.
func (c Coloring) HotCapacityNodes(elem int64) int64 {
	return c.HotSets * int64(c.Assoc) * c.NodesPerBlock(elem)
}

// IsHot reports whether addr falls in the hot cache region.
func (c Coloring) IsHot(addr memsys.Addr) bool { return c.SetOf(addr) < c.HotSets }

// wayPeriod returns the number of bytes after which the set mapping
// repeats: sets x block size.
func (c Coloring) wayPeriod() int64 { return c.Sets * c.BlockSize }

// SegmentAllocator hands out block-aligned extents restricted to one
// color region. It implements the address-space striping of Figure 2:
// within every way-period of the address space, bytes mapping to
// [0, HotSets) sets belong to the hot allocator and the rest to the
// cold allocator; each allocator skips the other's stripes.
type SegmentAllocator struct {
	coloring Coloring
	hot      bool
	arena    *memsys.Arena
	next     memsys.Addr // next candidate address (block aligned)
	limit    memsys.Addr // end of the arena extent we own
	claimed  int64       // bytes of arena claimed (footprint)
	extents  []memsys.AddrRange
}

// NewSegmentAllocator returns an allocator for the hot or cold color
// region over arena. The cache's way period (sets x block size) must
// be a power of two — true of every real geometry this repo models —
// so that extents can be aligned to period boundaries; anything else
// fails with cclerr.ErrBadGeometry.
func NewSegmentAllocator(arena *memsys.Arena, c Coloring, hot bool) (*SegmentAllocator, error) {
	if p := c.wayPeriod(); p <= 0 || p&(p-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"layout: way period %d is not a power of two", p)
	}
	return &SegmentAllocator{coloring: c, hot: hot, arena: arena}, nil
}

// Claimed returns the arena bytes claimed so far.
func (s *SegmentAllocator) Claimed() int64 { return s.claimed }

// Extents returns the arena ranges claimed so far, coalesced, so the
// structures placed here can be registered with telemetry by range.
func (s *SegmentAllocator) Extents() []memsys.AddrRange {
	return append([]memsys.AddrRange(nil), s.extents...)
}

// runEnd returns the exclusive end of the contiguous color run
// containing addr: the hot run ends where the cold stripe of its way
// period begins, the cold run at the period boundary.
func (s *SegmentAllocator) runEnd(addr memsys.Addr) memsys.Addr {
	c := s.coloring
	periodStart := (int64(addr) / c.wayPeriod()) * c.wayPeriod()
	if s.hot {
		return memsys.Addr(periodStart + c.HotSets*c.BlockSize)
	}
	return memsys.Addr(periodStart + c.wayPeriod())
}

// skipToRegion advances addr (block-aligned) to the next block in the
// allocator's region.
func (s *SegmentAllocator) skipToRegion(addr memsys.Addr) memsys.Addr {
	c := s.coloring
	set := c.SetOf(addr)
	if s.hot {
		if set < c.HotSets {
			return addr
		}
		// Jump to set 0 of the next way period.
		period := c.wayPeriod()
		return memsys.Addr(((int64(addr) / period) + 1) * period)
	}
	if set >= c.HotSets {
		return addr
	}
	// Jump to the first cold set of this period.
	periodStart := (int64(addr) / c.wayPeriod()) * c.wayPeriod()
	return memsys.Addr(periodStart + c.HotSets*c.BlockSize)
}

// Alloc returns a block-aligned extent of n bytes lying entirely in
// the allocator's color region. A non-positive n fails with
// cclerr.ErrInvalidArg; n larger than the region's contiguous run
// length (HotSets*BlockSize or (Sets-HotSets)*BlockSize) cannot be
// placed in one color and fails with cclerr.ErrPlacementFailed;
// arena exhaustion propagates as cclerr.ErrOutOfMemory.
func (s *SegmentAllocator) Alloc(n int64) (memsys.Addr, error) {
	if n <= 0 {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: SegmentAllocator.Alloc(%d): non-positive size", n)
	}
	c := s.coloring
	runLen := c.HotSets * c.BlockSize
	if !s.hot {
		runLen = (c.Sets - c.HotSets) * c.BlockSize
	}
	if n > runLen {
		return memsys.NilAddr, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"layout: extent of %d bytes exceeds %d-byte color run", n, runLen)
	}
	for {
		if s.limit.IsNil() {
			if err := s.grow(n); err != nil {
				return memsys.NilAddr, err
			}
		}
		p := s.skipToRegion(s.next)
		if p.Add(n) > s.limit {
			if err := s.grow(n); err != nil {
				return memsys.NilAddr, err
			}
			continue
		}
		// The extent must fit inside p's contiguous color run.
		// Checking only the last block's color is not enough: an
		// extent can leave the run, cross the other color's stripe,
		// and end in the next period's run of the right color with
		// every middle byte miscolored. (Found by the coloring
		// property test — see TestSegmentAllocatorExtentStaysInRun.)
		if p.Add(n) <= s.runEnd(p) {
			s.next = memsys.Addr(alignUp(int64(p)+n, c.BlockSize))
			return p, nil
		}
		// Extent straddles out of the color run: jump to the start
		// of the next run and retry (n <= runLen guarantees a fit).
		s.next = s.skipToRegion(s.runEnd(p))
	}
}

func alignUp(n, a int64) int64 { return (n + a - 1) &^ (a - 1) }

// grow claims more arena, starting on a way-period boundary so the
// color stripes of Figure 2 line up — the paper's requirement that
// coloring gaps be multiples of the VM page size falls out of this
// alignment for all modeled geometries. A failed grow leaves the
// allocator's claimed state unchanged (alignment padding already
// consumed by the arena stays consumed, but is never counted here).
func (s *SegmentAllocator) grow(n int64) error {
	period := s.coloring.wayPeriod()
	start, err := s.arena.AlignTo(period)
	if err != nil {
		return err
	}
	if _, err := s.arena.Grow(n + period); err != nil { // at least one full period of slack
		return err
	}
	end := s.arena.Brk()
	s.claimed += int64(end) - int64(start)
	s.next = start
	s.limit = end
	s.extents = appendExtent(s.extents, start, end)
	return nil
}

// appendExtent records [start, end), merging with the previous extent
// when adjacent.
func appendExtent(exts []memsys.AddrRange, start, end memsys.Addr) []memsys.AddrRange {
	if n := len(exts); n > 0 && exts[n-1].End == start {
		exts[n-1].End = end
		return exts
	}
	return append(exts, memsys.AddrRange{Start: start, End: end})
}

// blockBump hands out consecutive block-aligned extents from
// contiguous arena extents: the uncolored half of Blocks.
type blockBump struct {
	arena     *memsys.Arena
	blockSize int64
	next      memsys.Addr
	limit     memsys.Addr
	claimed   int64
	extents   []memsys.AddrRange
}

// alloc returns the next n bytes rounded up to whole blocks,
// propagating arena exhaustion (cclerr.ErrOutOfMemory) from the grow
// path.
func (b *blockBump) alloc(n int64) (memsys.Addr, error) {
	n = alignUp(n, b.blockSize)
	if b.next.IsNil() || b.next.Add(n) > b.limit {
		start, err := b.arena.AlignTo(b.blockSize)
		if err != nil {
			return memsys.NilAddr, err
		}
		if _, err := b.arena.Grow(max(n, 64*b.blockSize)); err != nil {
			return memsys.NilAddr, err
		}
		b.claimed += int64(b.arena.Brk()) - int64(start)
		b.next = start
		b.limit = b.arena.Brk()
		b.extents = appendExtent(b.extents, start, b.limit)
	}
	p := b.next
	b.next = b.next.Add(n)
	return p, nil
}

// Blocks is the one placement source behind every cache-conscious
// structure: ccmorph's clusters, the colored B-tree's nodes, split's
// chunks and radiance's relocated lists all take their space here.
// Colored, it is the paper's §2.2 policy — the first HotSets x Assoc
// blocks' worth of hot requests land in the reserved hot sets, and
// everything after, or not asked to be hot, lands in the cold sets.
// Uncolored, it is a plain block bump.
type Blocks struct {
	geo       Geometry
	col       Coloring
	hot, cold *SegmentAllocator // colored mode
	bump      *blockBump        // uncolored mode
	hotLeft   int64             // hot budget not yet spent, in bytes

	cur    memsys.Addr // block Pack is filling
	used   int64       // bytes of cur handed out
	curHot bool
}

// NewBlocks returns a placement source over arena for cache geometry
// g. colorFrac > 0 two-colors the cache with that fraction of its sets
// hot; any other value selects the uncolored block bump. An unusable
// fraction fails with cclerr.ErrInvalidArg, and a geometry that cannot
// be colored (fewer than two sets, a non-power-of-two way period) or
// bumped (a non-power-of-two block size) with cclerr.ErrBadGeometry.
func NewBlocks(arena *memsys.Arena, g Geometry, colorFrac float64) (*Blocks, error) {
	b := &Blocks{geo: g}
	if colorFrac > 0 {
		col, err := NewColoring(g, colorFrac)
		if err != nil {
			return nil, err
		}
		if b.hot, err = NewSegmentAllocator(arena, col, true); err != nil {
			return nil, err
		}
		if b.cold, err = NewSegmentAllocator(arena, col, false); err != nil {
			return nil, err
		}
		b.col = col
		b.hotLeft = b.HotBytes()
		return b, nil
	}
	if g.BlockSize <= 0 || g.BlockSize&(g.BlockSize-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrBadGeometry,
			"layout: block size %d must be a positive power of two", g.BlockSize)
	}
	b.bump = &blockBump{arena: arena, blockSize: g.BlockSize}
	return b, nil
}

// Alloc returns a block-aligned extent of size bytes. It lands hot
// when wantHot is set and the remaining hot budget covers size, and
// cold otherwise; the bool reports which. Uncolored, every extent is
// the next run of whole blocks and never hot. A non-positive size
// fails with cclerr.ErrInvalidArg; the colored allocators' run-length
// and arena errors propagate.
func (b *Blocks) Alloc(size int64, wantHot bool) (memsys.Addr, bool, error) {
	if size <= 0 {
		return memsys.NilAddr, false, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: Blocks.Alloc(%d): non-positive size", size)
	}
	if b.bump != nil {
		a, err := b.bump.alloc(size)
		return a, false, err
	}
	if wantHot && b.hotLeft >= size {
		a, err := b.hot.Alloc(size)
		if err != nil {
			return memsys.NilAddr, false, err
		}
		b.hotLeft -= size
		return a, true, nil
	}
	a, err := b.cold.Alloc(size)
	return a, false, err
}

// Pack returns space for one sub-block item of size bytes. Items are
// packed densely — "laid out linearly" as in Figure 1 — and a fresh
// block (claimed through Alloc with wantHot) opens only when the item
// would straddle the current one, so short items share blocks. The
// bool is the hotness of the block the item landed in. A size outside
// (0, BlockSize] fails with cclerr.ErrInvalidArg or
// cclerr.ErrPlacementFailed; allocator failures propagate.
func (b *Blocks) Pack(size int64, wantHot bool) (memsys.Addr, bool, error) {
	if size <= 0 {
		return memsys.NilAddr, false, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: Blocks.Pack(%d): non-positive size", size)
	}
	if size > b.geo.BlockSize {
		return memsys.NilAddr, false, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"layout: item of %d bytes exceeds block size %d", size, b.geo.BlockSize)
	}
	if b.cur.IsNil() || b.used+size > b.geo.BlockSize {
		blk, hot, err := b.Alloc(b.geo.BlockSize, wantHot)
		if err != nil {
			return memsys.NilAddr, false, err
		}
		b.cur, b.curHot, b.used = blk, hot, 0
	}
	a := b.cur.Add(b.used)
	b.used += size
	return a, b.curHot, nil
}

// Claimed returns the arena bytes claimed so far.
func (b *Blocks) Claimed() int64 {
	if b.bump != nil {
		return b.bump.claimed
	}
	return b.hot.Claimed() + b.cold.Claimed()
}

// Extents returns the arena ranges claimed so far — hot extents
// first, then cold — so the structures placed here can be registered
// with telemetry by range.
func (b *Blocks) Extents() []memsys.AddrRange {
	if b.bump != nil {
		return append([]memsys.AddrRange(nil), b.bump.extents...)
	}
	return append(b.hot.Extents(), b.cold.Extents()...)
}

// Coloring returns the cache partition and true when b is colored,
// or false for the uncolored block bump.
func (b *Blocks) Coloring() (Coloring, bool) { return b.col, b.bump == nil }

// HotBytes returns the whole hot budget in bytes, HotSets x Assoc x
// BlockSize, or zero when b is uncolored.
func (b *Blocks) HotBytes() int64 {
	return b.col.HotSets * int64(b.col.Assoc) * b.col.BlockSize
}

// SubtreeParams describes how a tree is packed into cache blocks.
type SubtreeParams struct {
	ElemSize      int64 // structure element size e
	NodesPerBlock int64 // k = floor(b/e)
	HotNodes      int64 // number of root-most nodes colored hot
}

// PlanSubtrees computes clustering and coloring parameters from the
// cache geometry, element size, and coloring fraction — the work
// "ccmorph determines ... from the cache parameters and structure
// element size" (§3.1.1). It fails with cclerr.ErrInvalidArg for a
// non-positive element size or an unusable coloring fraction.
func PlanSubtrees(g Geometry, elemSize int64, colorFrac float64) (SubtreeParams, error) {
	if elemSize <= 0 {
		return SubtreeParams{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: element size %d must be positive", elemSize)
	}
	k := g.NodesPerBlock(elemSize)
	col, err := NewColoring(g, colorFrac)
	if err != nil {
		return SubtreeParams{}, err
	}
	return SubtreeParams{
		ElemSize:      elemSize,
		NodesPerBlock: k,
		HotNodes:      col.HotCapacityNodes(elemSize),
	}, nil
}
