package trees

import (
	"errors"
	"math/rand"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// newBTree is the test-local fail-fast constructor: geometry here is
// always valid, so an error is a harness bug.
func newBTree(t *testing.T, m *machine.Machine, colorFrac float64) *BTree {
	t.Helper()
	bt, err := NewBTree(m, colorFrac)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// bulkLoad is the fail-fast BulkLoad wrapper for valid parameters.
func bulkLoad(t *testing.T, bt *BTree, n int64, fill float64) {
	t.Helper()
	if err := bt.BulkLoad(n, fill); err != nil {
		t.Fatal(err)
	}
}

func TestMaxKeysFor(t *testing.T) {
	if got := MaxKeysFor(64); got != 6 {
		t.Errorf("MaxKeysFor(64) = %d, want 6", got)
	}
	if got := MaxKeysFor(128); got != 14 {
		t.Errorf("MaxKeysFor(128) = %d, want 14", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("tiny block did not panic")
		}
	}()
	MaxKeysFor(16)
}

func TestBTreeNodeFitsBlock(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	// leaf flag is the last field; it must end within the block.
	if bt.leafOff()+4 > bt.blockSize {
		t.Fatalf("node layout (%d bytes) exceeds block (%d)", bt.leafOff()+4, bt.blockSize)
	}
}

func TestBulkLoadSearchable(t *testing.T) {
	for _, n := range []int64{1, 2, 4, 5, 31, 100, 1000, 4097} {
		m := machine.NewScaled(64)
		bt := newBTree(t, m, 0)
		bulkLoad(t, bt, n, 0.67)
		if bt.N() != n {
			t.Fatalf("n=%d: N() = %d", n, bt.N())
		}
		if err := bt.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := int64(1); k <= n; k++ {
			if !bt.Search(uint32(k)) {
				t.Fatalf("n=%d: key %d not found", n, k)
			}
		}
		if bt.Search(0) || bt.Search(uint32(n)+1) {
			t.Fatalf("n=%d: found absent key", n)
		}
	}
}

func TestBulkLoadFillAffectsFootprintAndHeight(t *testing.T) {
	const n = 4096
	mFull := machine.NewScaled(64)
	full := newBTree(t, mFull, 0)
	bulkLoad(t, full, n, 1.0)

	mSlack := machine.NewScaled(64)
	slack := newBTree(t, mSlack, 0)
	bulkLoad(t, slack, n, 0.6)

	if slack.HeapBytes() <= full.HeapBytes() {
		t.Errorf("fill 0.6 (%d bytes) should use more space than fill 1.0 (%d)",
			slack.HeapBytes(), full.HeapBytes())
	}
	if slack.Height() < full.Height() {
		t.Errorf("slack tree height %d < full tree height %d", slack.Height(), full.Height())
	}
}

func TestBulkLoadValidation(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	for _, f := range []func() error{
		func() error { return bt.BulkLoad(0, 0.5) },
		func() error { return bt.BulkLoad(10, 0) },
		func() error { return bt.BulkLoad(10, 1.5) },
	} {
		if err := f(); !errors.Is(err, cclerr.ErrInvalidArg) {
			t.Errorf("invalid BulkLoad err = %v, want ErrInvalidArg", err)
		}
	}
	bulkLoad(t, bt, 10, 0.5)
	if err := bt.BulkLoad(10, 0.5); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Errorf("double BulkLoad err = %v, want ErrInvalidArg", err)
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	if err := bt.Insert(42); err != nil {
		t.Fatal(err)
	}
	if !bt.Search(42) || bt.N() != 1 || bt.Height() != 1 {
		t.Fatalf("single insert broken: n=%d h=%d", bt.N(), bt.Height())
	}
	bt.Insert(42) // duplicate: no-op
	if bt.N() != 1 {
		t.Fatal("duplicate insert changed N")
	}
}

func TestInsertRandomOrder(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	rng := rand.New(rand.NewSource(3))
	keys := rng.Perm(2000)
	for _, k := range keys {
		if err := bt.Insert(uint32(k + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if bt.N() != 2000 {
		t.Fatalf("N = %d, want 2000", bt.N())
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2000; k++ {
		if !bt.Search(uint32(k)) {
			t.Fatalf("key %d lost", k)
		}
	}
	if bt.Height() < 4 {
		t.Errorf("height %d suspiciously small for 2000 keys, 4 per node", bt.Height())
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0)
	bulkLoad(t, bt, 1000, 0.67)
	// Insert keys beyond the loaded range; the slack must absorb
	// some without splitting everywhere.
	for k := uint32(1001); k <= 1200; k++ {
		if err := bt.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 1200; k++ {
		if !bt.Search(k) {
			t.Fatalf("key %d missing after mixed load", k)
		}
	}
}

func TestColoredBTreeRootIsHot(t *testing.T) {
	m := machine.NewScaled(16)
	bt := newBTree(t, m, 0.5)
	bulkLoad(t, bt, 1<<14, 0.67)
	col, err := layout.NewColoring(layout.FromLevel(m.Cache.LastLevel()), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !col.IsHot(bt.root) {
		t.Fatalf("root %v (set %d) not hot", bt.root, col.SetOf(bt.root))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNewBTreeErrors checks that NewBTree keeps the error classes of
// the node placement it builds on.
func TestNewBTreeErrors(t *testing.T) {
	withL2 := func(size, block int64) *machine.Machine {
		cfg := cache.PaperHierarchy()
		cfg.Levels[1].Size, cfg.Levels[1].BlockSize = size, block
		return machine.New(cfg)
	}
	cases := []struct {
		name string
		m    *machine.Machine
		frac float64
		want error
	}{
		{"block too small for a node", withL2(1<<20, 32), 0, cclerr.ErrBadGeometry},
		{"coloring fraction 1", machine.NewScaled(16), 1, cclerr.ErrInvalidArg},
		{"one-set L2 cannot be colored", withL2(64, 64), 0.5, cclerr.ErrBadGeometry},
	}
	for _, c := range cases {
		if _, err := NewBTree(c.m, c.frac); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestBTreeNodesBlockAligned(t *testing.T) {
	m := machine.NewScaled(64)
	bt := newBTree(t, m, 0.5)
	bulkLoad(t, bt, 500, 0.67)
	seen := 0
	var dfs func(a memsys.Addr)
	dfs = func(a memsys.Addr) {
		if int64(a)%bt.blockSize != 0 {
			t.Fatalf("node at %v not block aligned", a)
		}
		seen++
		if bt.rawLeaf(a) {
			return
		}
		for i := 0; i <= bt.rawCount(a); i++ {
			dfs(bt.rawChild(a, i))
		}
	}
	dfs(bt.root)
	if seen < 100 {
		t.Fatalf("walked only %d nodes", seen)
	}
}

// TestBTreeMorphStrategies exercises both node-order strategies on
// the one-node-per-block tree: the morph must keep the tree balanced,
// ordered, and fully searchable, and must actually move the root
// (copy-then-commit relocates every node).
func TestBTreeMorphStrategies(t *testing.T) {
	const n = 1000
	for _, strat := range []ccmorph.Strategy{ccmorph.SubtreeCluster, ccmorph.VEB} {
		t.Run(strat.String(), func(t *testing.T) {
			m := machine.NewScaled(64)
			bt := newBTree(t, m, 0.5)
			bulkLoad(t, bt, n, 0.67)
			oldRoot := bt.root
			st, err := bt.Morph(strat, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if st.Nodes == 0 {
				t.Fatal("morph placed no nodes")
			}
			if st.NodesPerBlk != 1 {
				t.Fatalf("k = %d, want 1 (one node per block)", st.NodesPerBlk)
			}
			if bt.root == oldRoot {
				t.Fatal("morph did not relocate the root")
			}
			if err := bt.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for k := int64(1); k <= n; k++ {
				if !bt.Search(uint32(k)) {
					t.Fatalf("key %d not found after %s morph", k, strat)
				}
			}
			if bt.Search(0) || bt.Search(n+1) {
				t.Fatal("morphed tree finds absent keys")
			}
		})
	}
}
