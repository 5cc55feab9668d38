// coherent.go is the snoop/invalidate seam a coherence directory
// (internal/coherence) drives. The single-core demand path never calls
// anything in this file, and a line carries no coherence state: the
// directory is the only owner of MESI state, and a hierarchy only
// drops or cleans the lines a snoop names. Only a machine.Topology,
// which wires several private hierarchies to one directory, exercises
// these methods.
package cache

import "ccl/internal/memsys"

// eachResident calls f with every resident slot covering
// [addr, addr+span) at every level. span may be larger than a level's
// block size (a coherence granule covering several L1 lines) or
// smaller (then exactly one block per level is visited).
func (h *Hierarchy) eachResident(addr memsys.Addr, span int64, f func(l *level, slot int64)) {
	if span <= 0 {
		span = 1
	}
	for i := range h.levels {
		l := &h.levels[i]
		first := int64(addr) >> l.blockShift
		last := (int64(addr) + span - 1) >> l.blockShift
		for blk := first; blk <= last; blk++ {
			set, way := l.lookup(memsys.Addr(blk << l.blockShift))
			if way >= 0 {
				f(l, set*l.assoc+int64(way))
			}
		}
	}
}

// Invalidate drops every resident block covering [addr, addr+span)
// from every level — a remote core's store to the coherence granule.
// It reports whether any copy was resident and whether any dropped
// copy was dirty (the caller charges a forced writeback for the
// latter). Invalidating a non-resident granule is a no-op, mirrored
// exactly by the oracle's reference model.
func (h *Hierarchy) Invalidate(addr memsys.Addr, span int64) (valid, dirty bool) {
	h.eachResident(addr, span, func(l *level, slot int64) {
		valid = true
		if l.lines[slot].dirty {
			dirty = true
		}
		l.tags[slot] = -1
		l.lines[slot] = line{}
	})
	return valid, dirty
}

// Downgrade clears the dirty bit of every resident block covering
// [addr, addr+span) — a remote core's load forcing this core's
// Modified copy back to memory. It reports whether any copy was dirty
// (the caller charges the forced writeback).
func (h *Hierarchy) Downgrade(addr memsys.Addr, span int64) (dirty bool) {
	h.eachResident(addr, span, func(l *level, slot int64) {
		if l.lines[slot].dirty {
			dirty = true
			l.lines[slot].dirty = false
		}
	})
	return dirty
}

// MemAccesses returns the running count of demand accesses that
// missed every level. A topology samples it around a private-cache
// access to detect a full miss without copying Stats.
func (h *Hierarchy) MemAccesses() int64 { return h.stats.MemAccesses }
