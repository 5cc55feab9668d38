package trees

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/machine"
)

func TestOrderString(t *testing.T) {
	if RandomOrder.String() != "random-clustered" ||
		DepthFirstOrder.String() != "depth-first-clustered" ||
		LevelOrder.String() != "level-clustered" {
		t.Fatal("Order.String broken")
	}
	if Order(7).String() == "" {
		t.Fatal("unknown order should format")
	}
}

func TestBuildProducesSearchableBST(t *testing.T) {
	for _, order := range []Order{RandomOrder, DepthFirstOrder, LevelOrder} {
		m := machine.NewScaled(64)
		alloc := heap.New(m.Arena)
		tr := MustBuild(m, alloc, 500, order, 42)
		if tr.N() != 500 {
			t.Fatalf("%v: N = %d", order, tr.N())
		}
		if err := tr.CheckSearchable(); err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if tr.Search(0) || tr.Search(501) {
			t.Fatalf("%v: found absent key", order)
		}
	}
}

func TestBuildSingleKey(t *testing.T) {
	m := machine.NewScaled(64)
	tr := MustBuild(m, heap.New(m.Arena), 1, RandomOrder, 1)
	if !tr.Search(1) || tr.Search(2) {
		t.Fatal("single-key tree broken")
	}
}

func TestBuildZeroFails(t *testing.T) {
	m := machine.NewScaled(64)
	if _, err := Build(m, heap.New(m.Arena), 0, RandomOrder, 1); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("Build(0) err = %v, want ErrInvalidArg", err)
	}
}

// BuildIn and SearchOn are the Machine-free seam the multicore
// drivers use; each must agree exactly with its Machine-bound twin.
func TestBuildInAndSearchOn(t *testing.T) {
	const n = 300
	for _, order := range []Order{RandomOrder, DepthFirstOrder, LevelOrder} {
		t.Run(order.String(), func(t *testing.T) {
			m := machine.NewScaled(64)
			tr := MustBuild(m, heap.New(m.Arena), n, order, 42)

			// Same bytes at the same addresses as Build.
			arena := memsys.NewArena(memsys.DefaultPageSize)
			bare, err := BuildIn(arena, heap.New(arena), n, order, 42)
			if err != nil {
				t.Fatal(err)
			}
			if bare.Root() != tr.Root() || arena.Brk() != m.Arena.Brk() {
				t.Fatalf("BuildIn root/brk %v/%v, Build %v/%v", bare.Root(), arena.Brk(), tr.Root(), m.Arena.Brk())
			}
			size := arena.Size()
			if !bytes.Equal(arena.ReadBytes(arena.Base(), size), m.Arena.ReadBytes(m.Arena.Base(), size)) {
				t.Fatal("BuildIn wrote different bytes from Build")
			}

			// SearchOn(m, k) is Search(k), charge for charge.
			m2 := machine.NewScaled(64)
			tr2 := MustBuild(m2, heap.New(m2.Arena), n, order, 42)
			for k := uint32(0); k <= n+1; k++ {
				if got, want := tr2.SearchOn(m2, k), tr.Search(k); got != want {
					t.Fatalf("key %d: SearchOn %v, Search %v", k, got, want)
				}
			}
			if !reflect.DeepEqual(m2.Stats(), m.Stats()) {
				t.Fatalf("SearchOn stats %+v, Search stats %+v", m2.Stats(), m.Stats())
			}

			// On a Topology, one core searches and only it pays.
			tp := machine.NewTopology(machine.DefaultTopologyConfig(2))
			shared, err := BuildIn(tp.Arena, heap.New(tp.Arena), n, order, 42)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint32(1); k <= n; k++ {
				if !shared.SearchOn(tp.Core(0), k) {
					t.Fatalf("core 0 missed key %d", k)
				}
			}
			if tp.CoreCycles(0) == 0 || tp.CoreCycles(1) != 0 {
				t.Fatalf("core cycles %d/%d, want only core 0 charged", tp.CoreCycles(0), tp.CoreCycles(1))
			}
		})
	}
}

func TestBuildInNonPositiveFails(t *testing.T) {
	for _, n := range []int64{0, -1} {
		arena := memsys.NewArena(memsys.DefaultPageSize)
		if _, err := BuildIn(arena, heap.New(arena), n, DepthFirstOrder, 1); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Fatalf("BuildIn(%d) err = %v, want ErrInvalidArg", n, err)
		}
	}
}

func TestDepthFirstOrderIsSequential(t *testing.T) {
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	tr := MustBuild(m, alloc, 127, DepthFirstOrder, 1)
	// Walking the left spine of a preorder layout must read
	// ascending, tightly packed addresses.
	n := tr.Root()
	prev := n
	for {
		next := m.Arena.LoadAddr(n.Add(bstOffLeft))
		if next.IsNil() {
			break
		}
		if next <= prev {
			t.Fatalf("preorder layout: left child %v not after parent %v", next, prev)
		}
		if int64(next)-int64(prev) > 64 {
			t.Fatalf("preorder layout: gap %d too large", int64(next)-int64(prev))
		}
		prev, n = next, next
	}
}

func TestMorphKeepsSemantics(t *testing.T) {
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	tr := MustBuild(m, alloc, 1000, RandomOrder, 7)
	st, err := tr.Morph(0.5, func(a memsys.Addr) { alloc.Free(a) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 1000 {
		t.Fatalf("morphed %d nodes, want 1000", st.Nodes)
	}
	if st.NodesPerBlk != 3 {
		t.Fatalf("k = %d, want 3", st.NodesPerBlk)
	}
	if err := tr.CheckSearchable(); err != nil {
		t.Fatal(err)
	}
	if tr.Search(0) || tr.Search(1001) {
		t.Fatal("morphed tree finds absent keys")
	}
}

func TestGreedyPrefetchSameResults(t *testing.T) {
	m := machine.NewScaled(64)
	tr := MustBuild(m, heap.New(m.Arena), 300, RandomOrder, 3)
	for k := uint32(1); k <= 300; k++ {
		if !tr.SearchGreedyPrefetch(k) {
			t.Fatalf("prefetching search missed key %d", k)
		}
	}
	if tr.SearchGreedyPrefetch(0) || tr.SearchGreedyPrefetch(999) {
		t.Fatal("prefetching search found absent key")
	}
}

// searchCycles runs searches for uniformly random present keys and
// returns average cycles per search after a warmup period.
func searchCycles(tr interface{ Search(uint32) bool }, n int64, m *machine.Machine, searches int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < searches/4; i++ { // warmup
		tr.Search(uint32(rng.Int63n(n)) + 1)
	}
	m.ResetStats()
	for i := 0; i < searches; i++ {
		tr.Search(uint32(rng.Int63n(n)) + 1)
	}
	return float64(m.Stats().TotalCycles()) / float64(searches)
}

// TestFigure5Ordering checks the headline microbenchmark relation at
// reduced scale: C-tree beats B-tree beats depth-first beats random.
// The tree:cache ratio matches the paper's (§4.2: the 40 MB tree was
// forty times the 1 MB L2; here ~2.6 MB over a 64 KB scaled L2).
func TestFigure5Ordering(t *testing.T) {
	const n = 1<<17 - 1
	const searches = 2000

	build := func(order Order) (*BST, *machine.Machine) {
		m := machine.NewScaled(16)
		return MustBuild(m, heap.New(m.Arena), n, order, 11), m
	}

	random, mr := build(RandomOrder)
	randomCycles := searchCycles(random, n, mr, searches, 5)

	dfs, md := build(DepthFirstOrder)
	dfsCycles := searchCycles(dfs, n, md, searches, 5)

	ctree, mc := build(RandomOrder)
	ctree.Morph(0.5, nil)
	ctreeCycles := searchCycles(ctree, n, mc, searches, 5)

	mb := machine.NewScaled(16)
	bt, err := NewBTree(mb, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.BulkLoad(n, 0.67); err != nil {
		t.Fatal(err)
	}
	btreeCycles := searchCycles(bt, n, mb, searches, 5)

	if !(ctreeCycles < btreeCycles && btreeCycles < randomCycles) {
		t.Errorf("Figure 5 ordering violated: ctree=%.1f btree=%.1f random=%.1f",
			ctreeCycles, btreeCycles, randomCycles)
	}
	if !(dfsCycles < randomCycles) {
		t.Errorf("depth-first (%.1f) should beat random (%.1f)", dfsCycles, randomCycles)
	}
	if !(ctreeCycles < dfsCycles) {
		t.Errorf("ctree (%.1f) should beat depth-first (%.1f)", ctreeCycles, dfsCycles)
	}
	if ratio := randomCycles / ctreeCycles; ratio < 2 {
		t.Errorf("C-tree speedup over random only %.2fx; paper shows 4-5x at scale", ratio)
	}
}

// TestPrefetchStallReduction: greedy prefetch always reduces load
// stalls, but with no per-node work the issue overhead eats the gain
// (why the paper's microbenchmark doesn't prefetch); with real
// per-node work to overlap, prefetching wins end to end (why it is
// competitive on Olden, Figure 7).
func TestPrefetchStallReduction(t *testing.T) {
	const n = 1<<14 - 1
	const searches = 1500

	run := func(work int64, prefetch bool) (total, stall int64) {
		// A TLB-less machine isolates the prefetch-vs-work overlap
		// being tested (TLB walks would add overlapping work).
		cfg := cache.ScaledHierarchy(16)
		cfg.TLB.Entries = 0
		m := machine.New(cfg)
		tr := MustBuild(m, heap.New(m.Arena), n, RandomOrder, 13)
		rng := rand.New(rand.NewSource(9))
		m.ResetStats()
		for i := 0; i < searches; i++ {
			key := uint32(rng.Int63n(n)) + 1
			if prefetch {
				tr.SearchGreedyPrefetchWork(key, work)
			} else {
				tr.SearchWork(key, work)
			}
		}
		s := m.Stats()
		return s.TotalCycles(), s.LoadStallCycles
	}

	// Bare pointer chase: issue overhead and wrong-path pollution
	// (direct-mapped caches) make prefetch a mild loss.
	plainTotal, _ := run(0, false)
	prefTotal, _ := run(0, true)
	if prefTotal <= plainTotal {
		t.Errorf("bare chase: prefetch (%d) unexpectedly beat plain (%d)", prefTotal, plainTotal)
	}
	if float64(prefTotal) > 1.15*float64(plainTotal) {
		t.Errorf("prefetch overhead too high on bare chase: %d vs %d", prefTotal, plainTotal)
	}

	// With 40 cycles of per-node work, the prefetch distance is
	// long enough to win outright, and stalls shrink markedly.
	workTotal, workStall := run(40, false)
	workPrefTotal, workPrefStall := run(40, true)
	if workPrefTotal >= workTotal {
		t.Errorf("with per-node work, prefetch (%d) should beat plain (%d)", workPrefTotal, workTotal)
	}
	if float64(workPrefStall) > 0.8*float64(workStall) {
		t.Errorf("prefetch stall %d not well below plain stall %d", workPrefStall, workStall)
	}
}
