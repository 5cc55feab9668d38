package oracle

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// refTopologyConfig is a hand-sized 2-core machine for directed tests.
func refTopologyConfig() machine.TopologyConfig {
	return machine.TopologyConfig{
		Cores: 2,
		Private: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1, WriteBack: true},
			},
			MemLatency: 8,
		},
		LLC:        cache.LevelConfig{Name: "LLC", Size: 8 << 10, Assoc: 4, BlockSize: 64, Latency: 12, WriteBack: true},
		MemLatency: 60,
	}
}

// The directed ping-pong scenario: every protocol transition of the
// reference model is exercised and must match the production machine.
func TestDiffTopologyPingPong(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 64; i++ {
		recs = append(recs,
			trace.Record{Kind: trace.Store, Core: i % 2, Addr: memsys.Addr((i % 4) * 8), Size: 8},
			trace.Record{Kind: trace.Load, Core: (i + 1) % 2, Addr: memsys.Addr((i % 4) * 8), Size: 8},
		)
	}
	if d := DiffTopology(refTopologyConfig(), recs); d != nil {
		t.Fatal(d)
	}
}

// Granule-spanning accesses must split identically on both sides.
func TestDiffTopologySpanningAccesses(t *testing.T) {
	recs := []trace.Record{
		{Kind: trace.Load, Core: 0, Addr: 60, Size: 16},
		{Kind: trace.Store, Core: 1, Addr: 56, Size: 16},
		{Kind: trace.Load, Core: 0, Addr: 62, Size: 4},
		{Kind: trace.Store, Core: 0, Addr: 127, Size: 2},
	}
	if d := DiffTopology(refTopologyConfig(), recs); d != nil {
		t.Fatal(d)
	}
}

// TestCoherenceDifferentialSweep is the multicore acceptance sweep:
// eight random geometries, each replayed under a round-robin and a
// randomized interleaving, for over a million accesses total. Cells
// are independent, so they run on a worker pool.
func TestCoherenceDifferentialSweep(t *testing.T) {
	geoms, recsPer := 8, 65536
	if testing.Short() {
		geoms, recsPer = 4, 4096
	}
	type cell struct{ g, il int }
	cells := make(chan cell, geoms*2)
	for g := 0; g < geoms; g++ {
		for il := 0; il < 2; il++ {
			cells <- cell{g, il}
		}
	}
	close(cells)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	total := 0
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				cfg, recs := topologySweepCell(0xC0FFEE, c.g, c.il, recsPer)
				d := DiffTopology(cfg, recs)
				mu.Lock()
				total += len(recs)
				if d != nil {
					failures = append(failures,
						"cell ("+itoa(c.g)+","+itoa(c.il)+"): "+d.String())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	if want := geoms * 2 * recsPer; total != want {
		t.Fatalf("sweep replayed %d records, want %d", total, want)
	}
	if !testing.Short() && total < 1_000_000 {
		t.Fatalf("sweep covered %d accesses, acceptance requires >= 1M", total)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// topologySweepCell builds cell (g, il) of the coherence sweep from an
// rng derived only from (seed, g, il): cells are independent and
// reproducible in any order, like SweepTrace.
func topologySweepCell(seed int64, g, il, n int) (machine.TopologyConfig, []trace.Record) {
	rng := rand.New(rand.NewSource(seed + int64(g)*0x9e3779b9 + int64(il)*0x85ebca6b))
	cfg := RandomTopology(rng)
	return cfg, TopologyRecords(rng, cfg.Cores, n, il)
}

// The sweep constructor must be deterministic and order-independent.
func TestTopologySweepCellDeterministic(t *testing.T) {
	c1, r1 := topologySweepCell(7, 3, 1, 100)
	_, _ = topologySweepCell(7, 0, 0, 100) // unrelated cell in between
	c2, r2 := topologySweepCell(7, 3, 1, 100)
	if c1.Cores != c2.Cores || len(r1) != len(r2) {
		t.Fatal("sweep cell not deterministic")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs between identical cells", i)
		}
	}
}

// Every random topology the sweep can draw must validate.
func TestRandomTopologyAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		cfg := RandomTopology(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("iteration %d: invalid topology: %v", i, err)
		}
	}
}

// The reference model must reject timing features outside the
// multicore scope rather than silently mis-modeling them.
func TestRefTopologyRejectsTLB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TLB config accepted by reference topology")
		}
	}()
	cfg := refTopologyConfig()
	cfg.Private.TLB.Entries = 64
	NewRefTopology(cfg)
}
