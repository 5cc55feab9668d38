// Package flat holds the simulator's dense per-key state: one paged
// table keyed by int64, a bitset built on it, and one fully-associative
// LRU set. The table and bitset replace per-key Go maps, whose entries
// cost tens of bytes each and never shrink, with pages of fixed-width
// entries that cost the entry width however long a run streams new
// keys; the LRU replaces linear scans with one hashed probe. The
// collector's seen sets, coherence marks and shadow caches
// (internal/telemetry), the MESI directory (internal/coherence) and
// the data TLB (internal/cache) all store their state here.
package flat

// PageLen is the number of entries in one table page. Pages are short
// because keys are often sparse: mc.Counters takes a fresh 8 KiB arena
// page per call and touches one coherence granule in 128, and a
// 512-entry directory page would then cost 12 KiB per granule touched.
// A user that wants wider pages uses wider entries, as Bits does.
const PageLen = 1 << pageShift

const pageShift = 4

// Table maps int64 keys to T entries held in pages of PageLen: key k
// lives in page k>>4 at index k&15, and a page is allocated the first
// time At reaches one of its keys. Keys never written read as
// the zero T. A one-page memo skips the page-directory lookup while
// accesses stay within a page. The zero Table is empty and ready.
type Table[T any] struct {
	pages    map[int64]*[PageLen]T // nil until the first At
	lastPage int64
	last     *[PageLen]T // memo: page lastPage, nil before any lookup hit
}

// page returns page pn, allocating it when alloc is set; it returns
// nil for an absent page when alloc is clear.
func (t *Table[T]) page(pn int64, alloc bool) *[PageLen]T {
	if t.last != nil && t.lastPage == pn {
		return t.last
	}
	p := t.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		if t.pages == nil {
			t.pages = map[int64]*[PageLen]T{}
		}
		p = new([PageLen]T)
		t.pages[pn] = p
	}
	t.lastPage, t.last = pn, p
	return p
}

// At returns key's entry for reading and writing, allocating its page
// on first touch.
func (t *Table[T]) At(key int64) *T {
	return &t.page(key>>pageShift, true)[key&(PageLen-1)]
}

// Find returns key's entry, or nil when its page was never allocated
// (every entry of such a page is the zero T). It allocates nothing.
func (t *Table[T]) Find(key int64) *T {
	if p := t.page(key>>pageShift, false); p != nil {
		return &p[key&(PageLen-1)]
	}
	return nil
}

// Empty reports whether At was never called: no page exists.
func (t *Table[T]) Empty() bool { return t.pages == nil }

// Bits is a set of int64 keys held as a paged bitmap. Each table entry
// is a chunk of 2048 keys, so a page holds 32 Ki keys in 4 KiB, and a
// set over keys spanning n consecutive values costs about n/8 bytes
// however often they recur. The zero Bits is empty.
type Bits struct {
	chunks Table[bitChunk]
}

type bitChunk [32]uint64

// bit splits key into its chunk, the word within the chunk, and the
// mask within that word.
func bit(key int64) (chunk int64, word int, mask uint64) {
	return key >> 11, int(uint64(key)>>6) & 31, 1 << (uint64(key) & 63)
}

// TestAndSet adds key and reports whether it was already present.
func (b *Bits) TestAndSet(key int64) bool {
	c, w, m := bit(key)
	p := &b.chunks.At(c)[w]
	old := *p&m != 0
	*p |= m
	return old
}

// Set adds key.
func (b *Bits) Set(key int64) { b.TestAndSet(key) }

// Test reports whether key is present. It allocates nothing.
func (b *Bits) Test(key int64) bool {
	c, w, m := bit(key)
	p := b.chunks.Find(c)
	return p != nil && p[w]&m != 0
}

// Clear removes key. It allocates nothing.
func (b *Bits) Clear(key int64) {
	c, w, m := bit(key)
	if p := b.chunks.Find(c); p != nil {
		p[w] &^= m
	}
}

// Empty reports whether no key was ever added, which a caller can
// check before a Test it would otherwise run on every access.
func (b *Bits) Empty() bool { return b.chunks.Empty() }
