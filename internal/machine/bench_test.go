package machine

import (
	"fmt"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

var benchSink int64

// BenchmarkTopologyL1Hit is the cheapest Topology access: each core in
// turn loads its own resident granule, so the directory grants a hit
// with no snoop and the private L1 hits. BenchmarkHierarchyL1Hit is the
// same load on a bare hierarchy with the same private config; the gap
// between them is what the topology layer (granule split, directory
// lookup, per-core clock) costs per access.
func BenchmarkTopologyL1Hit(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			tp := NewTopology(DefaultTopologyConfig(cores))
			span := tp.Config().LLC.BlockSize
			for c := 0; c < cores; c++ {
				tp.Access(c, memsys.Addr(int64(c)*span), 8, cache.Load)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % cores
				benchSink += tp.Access(c, memsys.Addr(int64(c)*span), 8, cache.Load)
			}
		})
	}
}

// BenchmarkHierarchyL1Hit is the bare-hierarchy baseline for
// BenchmarkTopologyL1Hit.
func BenchmarkHierarchyL1Hit(b *testing.B) {
	h := cache.New(DefaultTopologyConfig(1).Private)
	h.Access(0, 8, cache.Load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.Access(0, 8, cache.Load)
	}
}
