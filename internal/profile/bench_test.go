package profile

import (
	"math/rand"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// benchAddrs precomputes a steady-state access pattern so the
// benchmark loop measures only the access + observer path.
func benchAddrs() []memsys.Addr {
	addrs := make([]memsys.Addr, 1024)
	x := int64(1)
	for i := range addrs {
		x = (x*1103515245 + 12345) & 0x7fffffff
		addrs[i] = elemBase.Add((x%elemCount)*elemStride + (x>>8)%elemSize)
	}
	return addrs
}

func benchProfiled(b *testing.B, every int64) {
	h := cache.New(twoLevel())
	p := Attach(h, Config{SampleEvery: every, EpochLen: 4096, MaxEpochs: 8})
	registerNodes(p)
	addrs := benchAddrs()
	for _, a := range addrs { // warm: regions sampled, shadow populated
		h.Access(a, 4, cache.Load)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&1023], 4, cache.Load)
	}
}

// BenchmarkProfiledAccess measures a demand access with the profiler
// attributing every access (worst case: no sampling fast path).
func BenchmarkProfiledAccess(b *testing.B) { benchProfiled(b, 1) }

// BenchmarkProfiledAccessSampled measures the intended configuration:
// the counter-decrement fast path takes all but 1/31 of accesses.
func BenchmarkProfiledAccessSampled(b *testing.B) { benchProfiled(b, 31) }

// BenchmarkCollectorOnlyAccess is the pre-existing telemetry observer
// on the same workload — the cost floor the profiler's epoch layer
// adds onto.
func BenchmarkCollectorOnlyAccess(b *testing.B) {
	h := cache.New(twoLevel())
	p := New(twoLevel(), Config{})
	h.SetObserver(p.Collector())
	addrs := benchAddrs()
	for _, a := range addrs {
		h.Access(a, 4, cache.Load)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&1023], 4, cache.Load)
	}
}

// steadyHierarchy is the paper machine scaled by 32: a 512 B L1 of
// 16-byte blocks and a 32 KB L2 of 64-byte blocks.
func steadyHierarchy() cache.Config { return cache.ScaledHierarchy(32) }

// steadyAddrs precomputes root-to-leaf searches of a complete binary
// tree whose 2047 nodes sit in shuffled 32-byte slots over 64 KB,
// about twice steadyHierarchy's L2. Each visit loads the node's key,
// then one child pointer from the same block: the same-block repeat
// every pointer walk makes, which the all-miss pattern above lacks.
func steadyAddrs() []memsys.Addr {
	const nodes, slot = 2047, 32
	rng := rand.New(rand.NewSource(1))
	place := rng.Perm(nodes + 1)
	addrs := make([]memsys.Addr, 0, 1<<14)
	for len(addrs) < cap(addrs) {
		for n := 1; n <= nodes && len(addrs) < cap(addrs); {
			node := memsys.Addr(0x10000 + place[n]*slot)
			dir := rng.Intn(2)
			addrs = append(addrs, node, node.Add(4+4*int64(dir)))
			n = 2*n + dir
		}
	}
	return addrs
}

// benchSteady runs the steady pattern on a warmed hierarchy, with a
// telemetry collector attached when observe is set. The two variants
// give the observer's cost relative to the demand path it watches.
func benchSteady(b *testing.B, observe bool) {
	h := cache.New(steadyHierarchy())
	if observe {
		telemetry.Attach(h)
	}
	addrs := steadyAddrs()
	for _, a := range addrs {
		h.Access(a, 4, cache.Load)
	}
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&mask], 4, cache.Load)
	}
}

// BenchmarkCollectorSteadyState measures a collector-observed access
// on the hit-heavy pointer-walk pattern.
func BenchmarkCollectorSteadyState(b *testing.B) { benchSteady(b, true) }

// BenchmarkBareSteadyState is BenchmarkCollectorSteadyState with no
// observer: the demand-path cost the collector's is compared with.
func BenchmarkBareSteadyState(b *testing.B) { benchSteady(b, false) }
