// coherence.go extends the oracle to the multicore machine model: a
// naive reference topology (per-core private reference caches, one
// shared reference LLC, and an independent map-based MESI directory)
// plus the differential runner that replays an interleaved multicore
// trace through machine.Topology and this reference side by side.
//
// The reference mirrors the production protocol's two deliberate
// coarsenesses (see internal/coherence): silent evictions leave
// directory state stale, and protocol latencies are charged off
// directory state — except the forced writeback on invalidation,
// which both sides key off the snooped cache's actual dirty bit.
//
// Timing note: the production private hierarchies order LRU recency
// by their cycle clocks, which advance by at least the L1 latency per
// sub-access; the reference uses per-cache sequence numbers. As in
// the single-core oracle, the orders agree exactly when every level
// latency is >= 1, which RandomTopology guarantees.
package oracle

import (
	"fmt"
	"math/rand"

	"ccl/internal/cache"
	"ccl/internal/coherence"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// invalidate drops every copy of [addr, addr+span) at every level, by
// linear scan, reporting whether any copy was resident and whether any
// was dirty. It mirrors cache.Hierarchy.Invalidate: dropped lines are
// not counted as evictions and write nothing back here (the directory
// charges the forced writeback).
func (o *Oracle) invalidate(addr memsys.Addr, span int64) (valid, dirty bool) {
	for _, l := range o.levels {
		first := int64(addr) / l.cfg.BlockSize
		last := (int64(addr) + span - 1) / l.cfg.BlockSize
		for blk := first; blk <= last; blk++ {
			if idx := l.find(blk); idx >= 0 {
				valid = true
				if l.lines[idx].dirty {
					dirty = true
				}
				l.lines[idx] = line{}
			}
		}
	}
	return valid, dirty
}

// downgrade demotes every copy of [addr, addr+span) to clean,
// reporting whether any was dirty — the reference twin of
// cache.Hierarchy.Downgrade.
func (o *Oracle) downgrade(addr memsys.Addr, span int64) (dirty bool) {
	for _, l := range o.levels {
		first := int64(addr) / l.cfg.BlockSize
		last := (int64(addr) + span - 1) / l.cfg.BlockSize
		for blk := first; blk <= last; blk++ {
			if idx := l.find(blk); idx >= 0 {
				if l.lines[idx].dirty {
					dirty = true
					l.lines[idx].dirty = false
				}
			}
		}
	}
	return dirty
}

// refDirectory is an independent MESI directory: per-granule state
// vectors and a pending-coherence-miss bitmask per granule, written
// from the protocol description rather than sharing code with
// internal/coherence.
type refDirectory struct {
	cfg     coherence.Config
	cores   int
	states  map[int64][]coherence.State
	pending map[int64]uint64
	stats   coherence.Stats
}

// vec returns granule g's per-core state vector, allocating the
// all-Invalid vector on first touch.
func (d *refDirectory) vec(g int64) []coherence.State {
	v := d.states[g]
	if v == nil {
		v = make([]coherence.State, d.cores)
		d.states[g] = v
	}
	return v
}

// transact is the reference protocol step, visiting remote cores in
// ascending index order like the production directory.
func (d *refDirectory) transact(core int, addr memsys.Addr, store bool, ports []*Oracle) coherence.Action {
	g := int64(addr) / d.cfg.BlockSize
	base := memsys.Addr(g * d.cfg.BlockSize)
	v := d.vec(g)
	st := v[core]
	var act coherence.Action

	if st == coherence.Invalid && d.pending[g]&(1<<uint(core)) != 0 {
		d.pending[g] &^= 1 << uint(core)
		act.CoherenceMiss = true
		d.stats.CoherenceMisses++
	}

	if !store {
		if st != coherence.Invalid {
			act.Granted = st
			return act
		}
		act.Bus = true
		act.ExtraLatency = d.cfg.SnoopLatency
		granted := coherence.Exclusive
		for p := 0; p < d.cores; p++ {
			if p == core || v[p] == coherence.Invalid {
				continue
			}
			granted = coherence.Shared
			if v[p] == coherence.Modified {
				ports[p].downgrade(base, d.cfg.BlockSize)
				act.ForcedWB = true
				act.ExtraLatency += d.cfg.WritebackLatency
				d.stats.ForcedWritebacks++
			}
			v[p] = coherence.Shared
		}
		v[core] = granted
		act.Granted = granted
		d.stats.Transactions++
		if granted == coherence.Shared {
			d.stats.SharedGrants++
		} else {
			d.stats.ExclusiveGrants++
		}
		d.stats.ExtraCycles += act.ExtraLatency
		return act
	}

	switch st {
	case coherence.Modified:
		act.Granted = coherence.Modified
		return act
	case coherence.Exclusive:
		v[core] = coherence.Modified
		act.Granted = coherence.Modified
		return act
	}

	act.Bus = true
	act.ExtraLatency = d.cfg.SnoopLatency
	for p := 0; p < d.cores; p++ {
		if p == core || v[p] == coherence.Invalid {
			continue
		}
		d.stats.InvalidationsSent++
		act.ExtraLatency += d.cfg.InvalidateLatency
		resident, dirty := ports[p].invalidate(base, d.cfg.BlockSize)
		if dirty {
			act.ForcedWB = true
			act.ExtraLatency += d.cfg.WritebackLatency
			d.stats.ForcedWritebacks++
		}
		if resident {
			act.Invalidated |= 1 << uint(p)
			d.stats.CopiesInvalidated++
			d.pending[g] |= 1 << uint(p)
		}
		v[p] = coherence.Invalid
	}
	v[core] = coherence.Modified
	act.Granted = coherence.Modified
	d.stats.Transactions++
	if st == coherence.Shared {
		d.stats.Upgrades++
	} else {
		d.stats.RFOs++
	}
	d.stats.ExtraCycles += act.ExtraLatency
	return act
}

// RefTopology is the reference multicore machine: one naive Oracle per
// core for the private hierarchy, one for the shared LLC, and a
// refDirectory between them. It produces the same machine.AccessDetail
// records as Topology.AccessDetailed, computed from first principles.
type RefTopology struct {
	cfg    machine.TopologyConfig
	priv   []*Oracle
	llc    *Oracle
	dir    refDirectory
	cycles []int64
	span   int64
}

// NewRefTopology builds the reference machine for cfg. Pass a
// Topology.Config() result so both sides see the identical defaulted
// configuration; the same defaulting is applied here so that is
// idempotent. Panics on invalid configs and on timing features the
// multicore model excludes (TLB, hardware prefetch).
func NewRefTopology(cfg machine.TopologyConfig) *RefTopology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Private.MemLatency == 0 {
		cfg.Private.MemLatency = 8
	}
	cfg.Coherence.BlockSize = cfg.LLC.BlockSize
	cfg.Coherence = cfg.Coherence.Defaults()
	if cfg.Private.TLB.Entries != 0 || cfg.Private.HWPrefetch {
		panic("oracle: reference topology models neither TLB nor hardware prefetch")
	}
	rt := &RefTopology{
		cfg: cfg,
		llc: New(cache.Config{
			Levels:     []cache.LevelConfig{cfg.LLC},
			MemLatency: cfg.MemLatency,
		}),
		dir: refDirectory{
			cfg:     cfg.Coherence,
			cores:   cfg.Cores,
			states:  map[int64][]coherence.State{},
			pending: map[int64]uint64{},
		},
		cycles: make([]int64, cfg.Cores),
		span:   cfg.LLC.BlockSize,
	}
	for i := 0; i < cfg.Cores; i++ {
		rt.priv = append(rt.priv, New(cfg.Private))
	}
	return rt
}

// Access replays one demand access by core, splitting at coherence
// granule boundaries like the production topology, and returns the
// per-granule details appended to buf.
func (rt *RefTopology) Access(core int, addr memsys.Addr, size int64, kind cache.AccessKind, buf []machine.AccessDetail) []machine.AccessDetail {
	if kind != cache.Load && kind != cache.Store {
		panic(fmt.Sprintf("oracle: unsupported topology access kind %v", kind))
	}
	if size <= 0 {
		panic("oracle: topology access with non-positive size")
	}
	for size > 0 {
		n := rt.span - int64(addr)%rt.span
		if n > size {
			n = size
		}
		d := rt.accessGranule(core, addr, n, kind)
		rt.cycles[core] += d.Cycles
		buf = append(buf, d)
		addr = addr.Add(n)
		size -= n
	}
	return buf
}

// accessGranule handles one access within a single granule: protocol
// step, private descent, and — on a full private miss — one whole-
// granule fetch through the shared LLC.
func (rt *RefTopology) accessGranule(core int, addr memsys.Addr, size int64, kind cache.AccessKind) machine.AccessDetail {
	d := machine.AccessDetail{Core: core, Addr: addr, Size: size, Store: kind == cache.Store}
	d.Coh = rt.dir.transact(core, addr, d.Store, rt.priv)

	cycles, miss := rt.privateCost(rt.priv[core].Access(addr, size, kind))
	d.PrivateMiss = miss
	if miss {
		base := memsys.Addr(int64(addr) / rt.span * rt.span)
		llcCycles, llcMiss := rt.llcCost(rt.llc.Access(base, rt.span, kind))
		cycles += llcCycles
		d.LLCMiss = llcMiss
	}
	cycles += d.Coh.ExtraLatency
	d.Cycles = cycles
	return d
}

// privateCost derives the private hierarchy's charged cycles from its
// event stream: per sub-access, the level latencies down to the hit
// (all of them plus the LLC hop on a full miss), clamped to at least
// the L1 latency — the production accessOne's accounting.
func (rt *RefTopology) privateCost(evs []Event) (cycles int64, fullMiss bool) {
	levels := rt.cfg.Private.Levels
	for _, e := range evs {
		if e.Kind != EvAccess {
			continue
		}
		var lat int64
		if e.Level < 0 {
			for _, lc := range levels {
				lat += lc.Latency
			}
			lat += rt.cfg.Private.MemLatency
			fullMiss = true
		} else {
			for i := 0; i <= e.Level; i++ {
				lat += levels[i].Latency
			}
		}
		if lat < levels[0].Latency {
			lat = levels[0].Latency
		}
		cycles += lat
	}
	return cycles, fullMiss
}

// llcCost derives the shared LLC's charged cycles from its event
// stream (one sub-access: the granule is the LLC's block).
func (rt *RefTopology) llcCost(evs []Event) (cycles int64, miss bool) {
	for _, e := range evs {
		if e.Kind != EvAccess {
			continue
		}
		cycles += rt.cfg.LLC.Latency
		if e.Level < 0 {
			cycles += rt.cfg.MemLatency
			miss = true
		}
	}
	return cycles, miss
}

// CoreCycles returns core i's accumulated cycles.
func (rt *RefTopology) CoreCycles(i int) int64 { return rt.cycles[i] }

// Stats returns the reference directory's protocol counters.
func (rt *RefTopology) Stats() coherence.Stats { return rt.dir.stats }

// DiffTopology replays an interleaved multicore record stream through
// a fresh production topology and a fresh reference topology,
// comparing every granule's AccessDetail (state granted, protocol
// latency, invalidation set, miss flags, cycles) and afterwards the
// cumulative per-core private counters, LLC counters, directory
// stats, and per-core cycle totals. It returns nil when the machines
// agree, else the first divergence.
func DiffTopology(cfg machine.TopologyConfig, recs []trace.Record) *Divergence {
	tp := machine.NewTopology(cfg)
	ref := NewRefTopology(tp.Config())

	var got, want []machine.AccessDetail
	for i, r := range recs {
		got, want = got[:0], want[:0]
		_, got = tp.AccessDetailed(r.Core, r.Addr, r.Size, r.Kind.AccessKind(), got)
		want = ref.Access(r.Core, r.Addr, r.Size, r.Kind.AccessKind(), want)
		if d := compareDetails(got, want); d != "" {
			return &Divergence{Index: i, Record: r, Detail: d}
		}
	}

	for c := 0; c < tp.Cores(); c++ {
		real := tp.PrivateCache(c).Stats().Levels
		refStats := ref.priv[c].Stats()
		for i := range refStats {
			got := LevelStats{
				Accesses:   real[i].Accesses,
				Hits:       real[i].Hits,
				Misses:     real[i].Misses,
				Evictions:  real[i].Evictions,
				Writebacks: real[i].Writebacks,
			}
			if got != refStats[i] {
				return &Divergence{
					Index:  -1,
					Detail: fmt.Sprintf("core %d L%d counters: sim %+v, reference %+v", c, i+1, got, refStats[i]),
				}
			}
		}
		if tp.CoreCycles(c) != ref.CoreCycles(c) {
			return &Divergence{
				Index:  -1,
				Detail: fmt.Sprintf("core %d cycles: sim %d, reference %d", c, tp.CoreCycles(c), ref.CoreCycles(c)),
			}
		}
	}
	realLLC := tp.LLC().Stats().Levels[0]
	refLLC := ref.llc.Stats()[0]
	gotLLC := LevelStats{
		Accesses:   realLLC.Accesses,
		Hits:       realLLC.Hits,
		Misses:     realLLC.Misses,
		Evictions:  realLLC.Evictions,
		Writebacks: realLLC.Writebacks,
	}
	if gotLLC != refLLC {
		return &Divergence{
			Index:  -1,
			Detail: fmt.Sprintf("LLC counters: sim %+v, reference %+v", gotLLC, refLLC),
		}
	}
	if ds, rs := tp.Directory().Stats(), ref.Stats(); ds != rs {
		return &Divergence{
			Index:  -1,
			Detail: fmt.Sprintf("directory stats: sim %+v, reference %+v", ds, rs),
		}
	}
	return nil
}

// compareDetails diffs one access's per-granule details, returning ""
// on agreement or a description of the first mismatch.
func compareDetails(got, want []machine.AccessDetail) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("granule %d: sim %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("sim produced %d granules, reference %d", len(got), len(want))
	}
	return ""
}

// RandomTopology builds a small random multicore topology: 2-4 cores,
// 1-2 tiny private levels, a tiny shared LLC, and randomized protocol
// latencies. Geometries are kept small so evictions, stale directory
// state, and granule contention happen constantly; every latency is
// >= 1 so production clocks strictly advance (the LRU precondition).
func RandomTopology(rng *rand.Rand) machine.TopologyConfig {
	cores := 2 + rng.Intn(3)
	nLevels := 1 + rng.Intn(2)
	names := []string{"L1", "L2"}
	var priv cache.Config
	maxBlock := int64(0)
	for i := 0; i < nLevels; i++ {
		block := int64(8) << rng.Intn(3) // 8..32
		if block > maxBlock {
			maxBlock = block
		}
		assoc := 1 + rng.Intn(4)
		sets := int64(1 + rng.Intn(16))
		priv.Levels = append(priv.Levels, cache.LevelConfig{
			Name:      names[i],
			Size:      sets * int64(assoc) * block,
			Assoc:     assoc,
			BlockSize: block,
			Latency:   int64(1 + rng.Intn(4)),
			WriteBack: rng.Intn(2) == 0,
		})
	}
	priv.MemLatency = int64(1 + rng.Intn(8)) // hop to the LLC
	llcBlock := int64(32) << rng.Intn(2)     // 32 or 64, covers every private block
	llcAssoc := 1 + rng.Intn(4)
	llcSets := int64(1 + rng.Intn(32))
	return machine.TopologyConfig{
		Cores:   cores,
		Private: priv,
		LLC: cache.LevelConfig{
			Name:      "LLC",
			Size:      llcSets * int64(llcAssoc) * llcBlock,
			Assoc:     llcAssoc,
			BlockSize: llcBlock,
			Latency:   int64(1 + rng.Intn(8)),
			WriteBack: rng.Intn(2) == 0,
		},
		MemLatency: int64(20 + rng.Intn(40)),
		Coherence: coherence.Config{
			SnoopLatency:      int64(1 + rng.Intn(4)),
			InvalidateLatency: int64(1 + rng.Intn(8)),
			WritebackLatency:  int64(1 + rng.Intn(20)),
		},
	}
}

// TopologyRecords builds an n-record interleaved stream over a 4 KB
// shared window (dozens of granules, so cross-core contention is
// constant). Interleaving il 0 assigns cores round-robin; any other
// value draws cores from the rng — the two schedules the sweep
// replays per geometry.
func TopologyRecords(rng *rand.Rand, cores, n, il int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		k := trace.Load
		if rng.Intn(2) == 0 {
			k = trace.Store
		}
		core := i % cores
		if il != 0 {
			core = rng.Intn(cores)
		}
		recs = append(recs, trace.Record{
			Kind: k,
			Core: core,
			Addr: memsys.Addr(rng.Intn(4 << 10)),
			Size: int64(1 + rng.Intn(16)),
		})
	}
	return recs
}
