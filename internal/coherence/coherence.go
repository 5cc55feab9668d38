// Package coherence implements a directory-based MESI protocol over
// the per-core private hierarchies of a machine.Topology.
//
// The directory tracks one MESI state per (core, coherence granule),
// where the granule is the shared last-level cache's block size — the
// unit at which real coherence protocols operate and the unit at which
// false sharing happens (paper motivation: structure layout can cause
// or cure exactly these misses). The state is stored granule-major:
// one packed Entry per granule (holder mask, the holders' common
// state, pending coherence-miss marks) in a flat.Table, so a snoop
// walks the set bits of one mask. Every demand access first consults
// the directory (Transact); the directory snoops the other cores'
// private caches through the Port seam (cache.Hierarchy implements it
// directly), invalidating or downgrading remote copies and charging
// the configured latencies.
//
// Two deliberate simplifications, mirrored exactly by the oracle's
// reference model (internal/oracle):
//
//   - Silent evictions: a private cache that evicts a clean block does
//     not notify the directory, so directory state can say a core
//     holds a copy it has already dropped. The resulting spurious
//     invalidations are no-ops at the cache (Invalidate of an absent
//     granule reports no copy) and the protocol stays correct — this
//     matches sparse-directory behavior in real machines.
//
//   - No back-invalidation: the shared LLC is non-inclusive, so an
//     LLC eviction leaves private copies alone.
//
// A Directory is not safe for concurrent use: topologies are driven
// by one goroutine per run, with interleaving made explicit by the
// drivers (internal/mc) so results are deterministic.
package coherence

import (
	"math/bits"

	"ccl/internal/cclerr"
	"ccl/internal/flat"
	"ccl/internal/memsys"
)

// State is a directory-side MESI state for one core's copy of one
// coherence granule.
type State uint8

const (
	// Invalid: the core holds no copy (or an invalidated one).
	Invalid State = iota
	// Shared: a clean copy other cores may also hold.
	Shared
	// Exclusive: the only cached copy, clean.
	Exclusive
	// Modified: the only cached copy, dirty.
	Modified
)

// String returns the conventional one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config sets the protocol's granule and latency model. The zero
// value is completed by Defaults.
type Config struct {
	// BlockSize is the coherence granule in bytes, a power of two —
	// a topology sets it to its shared LLC's block size.
	BlockSize int64
	// SnoopLatency is charged once per directory transaction (a
	// miss, upgrade, or RFO that consults the other cores).
	SnoopLatency int64
	// InvalidateLatency is charged per remote core whose copy is
	// invalidated by a store.
	InvalidateLatency int64
	// WritebackLatency is charged when a transaction forces a remote
	// Modified copy back to memory (read downgrade or invalidation).
	WritebackLatency int64
}

// Defaults fills zero fields with the default latency model: 3-cycle
// snoop, 8 cycles per invalidation, 20 cycles per forced writeback.
func (c Config) Defaults() Config {
	if c.SnoopLatency == 0 {
		c.SnoopLatency = 3
	}
	if c.InvalidateLatency == 0 {
		c.InvalidateLatency = 8
	}
	if c.WritebackLatency == 0 {
		c.WritebackLatency = 20
	}
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return cclerr.Errorf(cclerr.ErrBadGeometry, "coherence: block size %d is not a positive power of two", c.BlockSize)
	}
	if c.SnoopLatency < 0 || c.InvalidateLatency < 0 || c.WritebackLatency < 0 {
		return cclerr.Errorf(cclerr.ErrBadGeometry, "coherence: latencies must be non-negative")
	}
	return nil
}

// Port is the per-core private-cache seam the directory drives.
// *cache.Hierarchy satisfies it (cache/coherent.go); tests use fakes.
type Port interface {
	// Invalidate drops every copy of [addr, addr+span), reporting
	// whether any copy was resident and whether any was dirty.
	Invalidate(addr memsys.Addr, span int64) (valid, dirty bool)
	// Downgrade demotes copies of [addr, addr+span) to Shared,
	// clearing dirty bits and reporting whether any was dirty.
	Downgrade(addr memsys.Addr, span int64) (dirty bool)
}

// Stats counts protocol traffic. Published via Each.
type Stats struct {
	Transactions      int64 // directory transactions (bus uses)
	SharedGrants      int64 // read misses granted Shared
	ExclusiveGrants   int64 // read misses granted Exclusive
	RFOs              int64 // store misses (read-for-ownership)
	Upgrades          int64 // stores hitting a Shared copy
	InvalidationsSent int64 // invalidation messages to remote cores
	CopiesInvalidated int64 // remote copies actually dropped (resident)
	ForcedWritebacks  int64 // remote Modified copies flushed
	CoherenceMisses   int64 // misses to a block invalidated while resident
	ExtraCycles       int64 // total latency charged by the protocol
}

// Each yields every counter as a (name, value) pair, prefixed
// "coh." for the telemetry registry.
func (s Stats) Each(f func(name string, v int64)) {
	f("coh.transactions", s.Transactions)
	f("coh.shared_grants", s.SharedGrants)
	f("coh.exclusive_grants", s.ExclusiveGrants)
	f("coh.rfos", s.RFOs)
	f("coh.upgrades", s.Upgrades)
	f("coh.invalidations_sent", s.InvalidationsSent)
	f("coh.copies_invalidated", s.CopiesInvalidated)
	f("coh.forced_writebacks", s.ForcedWritebacks)
	f("coh.coherence_misses", s.CoherenceMisses)
	f("coh.extra_cycles", s.ExtraCycles)
}

// Action reports what one Transact did, for cycle accounting and for
// the oracle's event-by-event diff.
type Action struct {
	// Granted is the requesting core's state after the transaction.
	Granted State
	// Bus reports whether a directory transaction occurred (false
	// for hits that need no protocol work).
	Bus bool
	// ExtraLatency is the protocol cycles to charge the requester.
	ExtraLatency int64
	// Invalidated is a bitmask of cores whose resident copy was
	// dropped by this transaction.
	Invalidated uint64
	// ForcedWB reports that a remote Modified copy was flushed.
	ForcedWB bool
	// CoherenceMiss reports that the requesting core lost its copy
	// of this granule to a remote store since it last held it — the
	// 4C classifier's "+coherence" class.
	CoherenceMiss bool
}

// Entry is the directory's packed record for one coherence granule.
// The zero Entry is a granule no core holds.
type Entry struct {
	// holders has bit i set while core i holds a copy in the
	// directory's view (silent evictions can leave a bit stale).
	holders uint64
	// pending has bit i set when core i's resident copy was
	// invalidated by a remote store; core i's next transaction on
	// the granule is a coherence miss and consumes the mark.
	pending uint64
	// state is every holder's state: Shared when several cores hold
	// the granule, Exclusive or Modified when one does.
	state State
}

// Directory is the MESI state table plus the snoop fan-out. Build
// with New, register each core's Port, then route every demand access
// through Transact before the private cache sees it.
type Directory struct {
	cfg     Config
	shift   uint
	ports   []Port
	entries flat.Table[Entry] // granule index -> entry
	// onInvalidate hooks feed telemetry (per-core collectors mark
	// the granule so the next miss classifies as coherence).
	onInvalidate []func(addr memsys.Addr, span int64)
	stats        Stats
}

// New builds a directory for cores cores. Panics on invalid
// configuration or cores outside [1, 64] (the width of an Entry's
// masks): directories are built from trusted topology setup code.
func New(cores int, cfg Config) *Directory {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cores < 1 || cores > 64 {
		panic(cclerr.Errorf(cclerr.ErrInvalidArg, "coherence: cores %d outside [1, 64]", cores))
	}
	return &Directory{
		cfg:          cfg,
		shift:        uint(bits.TrailingZeros64(uint64(cfg.BlockSize))),
		ports:        make([]Port, cores),
		onInvalidate: make([]func(memsys.Addr, int64), cores),
	}
}

// Config returns the directory's (defaulted) configuration.
func (d *Directory) Config() Config { return d.cfg }

// Cores returns the number of cores the directory tracks.
func (d *Directory) Cores() int { return len(d.ports) }

// SetPort registers core i's private-cache seam.
func (d *Directory) SetPort(i int, p Port) { d.ports[i] = p }

// SetInvalidationHook registers a callback fired when core i's
// resident copy is invalidated by a remote store; addr/span name the
// granule. Telemetry collectors use it for 4C attribution.
func (d *Directory) SetInvalidationHook(i int, f func(addr memsys.Addr, span int64)) {
	d.onInvalidate[i] = f
}

// Stats returns a copy of the accumulated protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// State returns core's directory state for addr's granule.
func (d *Directory) State(core int, addr memsys.Addr) State {
	e := d.entries.Find(int64(addr) >> d.shift)
	if e == nil || e.holders&(1<<uint(core)) == 0 {
		return Invalid
	}
	return e.state
}

// Transact routes one demand access (store=false for loads) through
// the protocol before the private cache is consulted. addr may be any
// address inside the granule; the access must not cross a granule
// boundary (the topology splits first). Remote cores are visited in
// ascending index order, so the snoop fan-out is deterministic.
func (d *Directory) Transact(core int, addr memsys.Addr, store bool) Action {
	g := int64(addr) >> d.shift
	e := d.entries.At(g)
	me := uint64(1) << uint(core)
	held := e.holders&me != 0
	var act Action

	switch {
	case held && !store:
		act.Granted = e.state
		return act
	case held && e.state != Shared:
		// Store by the sole holder: M stays M, E upgrades to M
		// silently. No transaction needed.
		e.state = Modified
		act.Granted = Modified
		return act
	case !held && e.pending&me != 0:
		// A miss consumes a pending invalidated-while-resident mark:
		// the copy this core lost to a remote store is why it is
		// about to miss.
		e.pending &^= me
		act.CoherenceMiss = true
		d.stats.CoherenceMisses++
	}

	base := memsys.Addr(g << d.shift)
	others := e.holders &^ me
	act.Bus = true
	act.ExtraLatency = d.cfg.SnoopLatency
	d.stats.Transactions++

	if !store {
		// Read miss: force writeback of a remote M copy, demote
		// remote E/M to S, grant S if anyone shares else E. Only a
		// sole holder can be Modified.
		granted := Exclusive
		if others != 0 {
			granted = Shared
			if e.state == Modified {
				if port := d.ports[bits.TrailingZeros64(others)]; port != nil {
					port.Downgrade(base, d.cfg.BlockSize)
				}
				act.ForcedWB = true
				act.ExtraLatency += d.cfg.WritebackLatency
				d.stats.ForcedWritebacks++
			}
			d.stats.SharedGrants++
		} else {
			d.stats.ExclusiveGrants++
		}
		e.holders |= me
		e.state = granted
		act.Granted = granted
		d.stats.ExtraCycles += act.ExtraLatency
		return act
	}

	// Shared upgrade or Invalid RFO: invalidate every remote copy.
	for rem := others; rem != 0; rem &= rem - 1 {
		p := bits.TrailingZeros64(rem)
		d.stats.InvalidationsSent++
		act.ExtraLatency += d.cfg.InvalidateLatency
		resident, dirty := false, false
		if d.ports[p] != nil {
			resident, dirty = d.ports[p].Invalidate(base, d.cfg.BlockSize)
		}
		if dirty {
			act.ForcedWB = true
			act.ExtraLatency += d.cfg.WritebackLatency
			d.stats.ForcedWritebacks++
		}
		if resident {
			act.Invalidated |= 1 << uint(p)
			d.stats.CopiesInvalidated++
			e.pending |= 1 << uint(p)
			if d.onInvalidate[p] != nil {
				d.onInvalidate[p](base, d.cfg.BlockSize)
			}
		}
	}
	if held {
		d.stats.Upgrades++
	} else {
		d.stats.RFOs++
	}
	e.holders = me
	e.state = Modified
	act.Granted = Modified
	d.stats.ExtraCycles += act.ExtraLatency
	return act
}
