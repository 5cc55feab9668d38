package trace

import (
	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// Recorder is a cache.Observer that captures a hierarchy's demand
// stream as a replayable Trace. It appends one Load or Store record of
// Size 1 per demand block access, at the address OnAccess reports: the
// access's own address for its first block, and each further block's
// base for the rest of a spanning access. Replaying the records
// through a fresh hierarchy of the same geometry (Replay, oracle.Diff)
// therefore touches the same blocks in the same order.
//
// Prefetches are not demand records. A software, hardware, or
// pointer prefetch reports only OnFill, so it leaves no record, and a
// run that prefetches does not replay to the same counters. Compute
// charges (Tick) are not cache events either: a replay's BusyCycles
// is zero.
//
// Recording sits at the observer seam rather than wrapping
// machine.Mem, so it captures every workload that runs on a
// hierarchy, whichever access path the workload uses. The Recorder
// forwards every callback to the observer it displaced, so telemetry
// or profiling attached beforehand keeps working.
type Recorder struct {
	cfg  cache.Config
	next cache.Observer
	recs []Record
}

// Attach installs a new Recorder as h's observer, chaining to the
// observer h had (if any), and returns it.
func Attach(h *cache.Hierarchy) *Recorder {
	r := &Recorder{cfg: h.Config(), next: h.Observer()}
	h.SetObserver(r)
	return r
}

// OnAccess implements cache.Observer.
func (r *Recorder) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	k := Load
	if kind == cache.Store {
		k = Store
	}
	r.recs = append(r.recs, Record{Kind: k, Addr: addr, Size: 1})
	if r.next != nil {
		r.next.OnAccess(addr, kind, hitLevel)
	}
}

// OnEvict implements cache.Observer.
func (r *Recorder) OnEvict(level int, addr memsys.Addr, dirty bool) {
	if r.next != nil {
		r.next.OnEvict(level, addr, dirty)
	}
}

// OnFill implements cache.Observer.
func (r *Recorder) OnFill(level int, addr memsys.Addr, prefetch bool) {
	if r.next != nil {
		r.next.OnFill(level, addr, prefetch)
	}
}

// Trace returns the recorded stream paired with the hierarchy's
// geometry, ready for Replay or oracle.Diff.
func (r *Recorder) Trace() Trace { return Trace{Config: r.cfg, Records: r.recs} }
