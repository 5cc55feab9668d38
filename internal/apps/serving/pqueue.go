package serving

import (
	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// Element geometry: priority and payload, one line-eighth each on the
// 64-byte last level. The backing array is placed so every d-element
// sibling group of a 4-ary heap occupies exactly one cache line (and
// an 8-ary group exactly two aligned lines): elements are 16 bytes,
// the children of slot i are slots d*i+1 .. d*i+d, and sibling groups
// start at indices congruent to 1 mod d — so aligning element 1 to a
// block boundary aligns every group.
const (
	pqElemSize = 16
	pqOffPri   = 0
	pqOffPay   = 8
	maxPQArity = 16
	maxPQCap   = 1 << 22
)

// PQConfig configures a priority queue.
type PQConfig struct {
	// Arity is the heap's branching factor d: a power of two in
	// [2, 16]. 4 matches a 64-byte line exactly at 16-byte elements.
	Arity int64
	// Cap is the maximum element count, fixed at construction — a
	// serving timer wheel is provisioned, not elastic.
	Cap int64
}

// PQStats summarizes a queue.
type PQStats struct {
	Len, Cap, Arity int64
	Pushes, Pops    int64
	Compares        int64
}

// PQueue is an implicit d-ary min-heap over a cache-line-aligned
// array in simulated memory, the serving family's timer/priority
// queue. All runtime accesses go through the machine.Mem seam.
type PQueue struct {
	m     machine.Mem
	arena *memsys.Arena
	base  memsys.Addr
	arity int64
	cap   int64
	n     int64

	pushes, pops, compares int64
}

// NewPQueue builds an empty queue over m's arena, aligning the
// element array so sibling groups match cache lines. Configuration
// errors are typed cclerr.ErrInvalidArg; arena exhaustion propagates
// as cclerr.ErrOutOfMemory.
func NewPQueue(m *machine.Machine, cfg PQConfig) (*PQueue, error) {
	if cfg.Arity < 2 || cfg.Arity > maxPQArity || cfg.Arity&(cfg.Arity-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewPQueue: arity %d must be a power of two in [2, %d]", cfg.Arity, maxPQArity)
	}
	if cfg.Cap < 1 || cfg.Cap > maxPQCap {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewPQueue: cap %d outside [1, %d]", cfg.Cap, maxPQCap)
	}
	block := layout.FromLevel(m.Cache.LastLevel()).BlockSize
	if block < pqElemSize {
		block = pqElemSize
	}
	if _, err := m.Arena.AlignTo(block); err != nil {
		return nil, err
	}
	start, err := m.Arena.Grow(block + cfg.Cap*pqElemSize)
	if err != nil {
		return nil, err
	}
	// Element 1 (the first sibling group) lands on the block boundary
	// at start+block; element 0, the root, sits just before it.
	base := start.Add(block - pqElemSize)
	return &PQueue{m: m, arena: m.Arena, base: base, arity: cfg.Arity, cap: cfg.Cap}, nil
}

// UseMem redirects the queue's runtime accesses through w, any
// machine.Mem over the same arena — typically an uncharged ArenaMem
// view, so a twin replays the same operations without moving the
// clock.
func (q *PQueue) UseMem(w machine.Mem) { q.m = w }

func (q *PQueue) elem(i int64) memsys.Addr { return q.base.Add(i * pqElemSize) }

// Push inserts (pri, payload), sifting up with a hole so each level
// costs one element read and at most one element write. A full queue
// fails with cclerr.ErrOutOfMemory.
func (q *PQueue) Push(pri, payload int64) error {
	if q.n >= q.cap {
		return cclerr.Errorf(cclerr.ErrOutOfMemory,
			"serving: pqueue full at %d elements", q.cap)
	}
	hole := q.n
	q.n++
	for hole > 0 {
		parent := (hole - 1) / q.arity
		q.m.Tick(1)
		q.compares++
		ppri := q.m.LoadInt(q.elem(parent).Add(pqOffPri))
		if ppri <= pri {
			break
		}
		ppay := q.m.LoadInt(q.elem(parent).Add(pqOffPay))
		q.m.StoreInt(q.elem(hole).Add(pqOffPri), ppri)
		q.m.StoreInt(q.elem(hole).Add(pqOffPay), ppay)
		hole = parent
	}
	q.m.StoreInt(q.elem(hole).Add(pqOffPri), pri)
	q.m.StoreInt(q.elem(hole).Add(pqOffPay), payload)
	q.pushes++
	return nil
}

// Pop removes and returns the minimum element; ok is false on an
// empty queue. The sift-down scans each d-element sibling group —
// one aligned line at arity 4 — for the minimum child.
func (q *PQueue) Pop() (pri, payload int64, ok bool) {
	if q.n == 0 {
		return 0, 0, false
	}
	pri = q.m.LoadInt(q.elem(0).Add(pqOffPri))
	payload = q.m.LoadInt(q.elem(0).Add(pqOffPay))
	q.n--
	q.pops++
	if q.n == 0 {
		return pri, payload, true
	}
	hpri := q.m.LoadInt(q.elem(q.n).Add(pqOffPri))
	hpay := q.m.LoadInt(q.elem(q.n).Add(pqOffPay))
	hole := int64(0)
	for {
		first := q.arity*hole + 1
		if first >= q.n {
			break
		}
		minIdx, minPri := first, q.m.LoadInt(q.elem(first).Add(pqOffPri))
		q.m.Tick(1)
		q.compares++
		last := first + q.arity
		if last > q.n {
			last = q.n
		}
		for c := first + 1; c < last; c++ {
			q.m.Tick(1)
			q.compares++
			cpri := q.m.LoadInt(q.elem(c).Add(pqOffPri))
			if cpri < minPri {
				minIdx, minPri = c, cpri
			}
		}
		q.m.Tick(1)
		q.compares++
		if minPri >= hpri {
			break
		}
		mpay := q.m.LoadInt(q.elem(minIdx).Add(pqOffPay))
		q.m.StoreInt(q.elem(hole).Add(pqOffPri), minPri)
		q.m.StoreInt(q.elem(hole).Add(pqOffPay), mpay)
		hole = minIdx
	}
	q.m.StoreInt(q.elem(hole).Add(pqOffPri), hpri)
	q.m.StoreInt(q.elem(hole).Add(pqOffPay), hpay)
	return pri, payload, true
}

// Len returns the element count.
func (q *PQueue) Len() int64 { return q.n }

// Stats summarizes the queue.
func (q *PQueue) Stats() PQStats {
	return PQStats{Len: q.n, Cap: q.cap, Arity: q.arity,
		Pushes: q.pushes, Pops: q.pops, Compares: q.compares}
}

// RegisterRegions registers the element array with rm and returns its
// label ("<prefix>.elems").
func (q *PQueue) RegisterRegions(rm *telemetry.RegionMap, prefix string) string {
	label := prefix + ".elems"
	rm.Register(label, q.base, q.cap*pqElemSize)
	rm.SetFieldMap(label, layout.MustFieldMap("pq-elem", pqElemSize,
		layout.Field{Name: "pri", Offset: pqOffPri, Size: 8},
		layout.Field{Name: "payload", Offset: pqOffPay, Size: 8},
	))
	return label
}

// CheckInvariants verifies the heap property against simulated memory
// without charging the cache hierarchy. Violations fail with
// cclerr.ErrCorruptStructure.
func (q *PQueue) CheckInvariants() error {
	w := ArenaMem(q.arena)
	for i := int64(1); i < q.n; i++ {
		parent := (i - 1) / q.arity
		pp := w.LoadInt(q.elem(parent).Add(pqOffPri))
		cp := w.LoadInt(q.elem(i).Add(pqOffPri))
		if pp > cp {
			return cclerr.Errorf(cclerr.ErrCorruptStructure,
				"serving: pqueue element %d (pri %d) under parent %d (pri %d)", i, cp, parent, pp)
		}
	}
	return nil
}
