// Package serving is the traffic-shaped workload family over the
// simulated heap: an open-addressing key/value store (KV), an
// intrusive LRU cache (LRU), and a cache-line-aligned d-ary heap
// priority queue (PQueue), each with tunable layout and placement so
// the ccmalloc clustering and coloring machinery can be raced against
// conventional allocation under skewed request streams.
//
// The paper's benchmarks are scientific codes; these structures model
// the hot path of a web-serving tier instead — hash probes, recency
// maintenance, and timer management hammered by Zipfian-distributed
// keys (Zipf). Every runtime access goes through machine.Mem, the
// repository's one memory-access seam, so the same operation code
// runs charged against the machine it was built on during
// measurement, or uncharged against the raw arena for invariant
// checks (ArenaMem). Recording for oracle replay needs no seam of its
// own: trace.Recorder observes the machine's cache hierarchy and
// captures the charged stream as issued.
//
// Layout variants follow the conventions of internal/split and
// internal/layout: AoS entries co-locate key metadata with payloads,
// hot/cold splitting segregates the probe-hot header words from the
// payload bytes, ccmalloc placement hint-chains allocations into
// shared cache blocks, and coloring confines the hot set to a
// reserved stripe of the last-level cache.
package serving

import (
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// arenaMem adapts a raw arena to machine.Mem: accesses hit simulated
// memory directly, bypass the cache hierarchy, and cost no cycles.
// Invariant checkers use it so verification does not perturb the
// measured access stream.
type arenaMem struct{ a *memsys.Arena }

func (w arenaMem) Load32(p memsys.Addr) uint32        { return w.a.Load32(p) }
func (w arenaMem) Store32(p memsys.Addr, v uint32)    { w.a.Store32(p, v) }
func (w arenaMem) LoadAddr(p memsys.Addr) memsys.Addr { return w.a.LoadAddr(p) }
func (w arenaMem) StoreAddr(p, v memsys.Addr)         { w.a.StoreAddr(p, v) }
func (w arenaMem) LoadInt(p memsys.Addr) int64        { return w.a.LoadInt(p) }
func (w arenaMem) StoreInt(p memsys.Addr, v int64)    { w.a.StoreInt(p, v) }
func (w arenaMem) Tick(int64)                         {}

// ArenaMem returns a machine.Mem that reads and writes the arena
// directly without charging the cache hierarchy — the view invariant
// checks and test oracles use.
func ArenaMem(a *memsys.Arena) machine.Mem { return arenaMem{a} }
