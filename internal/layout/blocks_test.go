package layout

import (
	"errors"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// geom8x2 is a small 2-way geometry: 8 sets of 64-byte blocks. At
// one half colored it has 4 hot sets x 2 ways = 8 hot blocks.
var geom8x2 = Geometry{Sets: 8, Assoc: 2, BlockSize: 64}

// blockColor reports whether every byte of [a, a+n) is hot (+1),
// every byte is cold (-1), or the extent mixes colors (0).
func blockColor(c Coloring, a memsys.Addr, n int64) int {
	hot, cold := 0, 0
	for b := int64(0); b < n; b++ {
		if c.IsHot(a.Add(b)) {
			hot++
		} else {
			cold++
		}
	}
	switch {
	case cold == 0:
		return 1
	case hot == 0:
		return -1
	}
	return 0
}

func TestBlocksAlloc(t *testing.T) {
	cases := []struct {
		name    string
		frac    float64
		wantHot bool
		n       int
		hot     int // leading allocations expected hot; the rest cold
	}{
		{"colored hands out HotSets*Assoc hot blocks, then cold", 0.5, true, 12, 8},
		{"colored wantHot=false always goes cold", 0.5, false, 12, 0},
		{"uncolored is never hot", 0, true, 12, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := must(NewBlocks(memsys.NewArena(0), geom8x2, c.frac))
			col, colored := b.Coloring()
			if colored != (c.frac > 0) {
				t.Fatalf("Coloring() colored = %v, want %v", colored, c.frac > 0)
			}
			if want := int64(c.frac*8) * 2 * 64; b.HotBytes() != want {
				t.Fatalf("HotBytes = %d, want %d", b.HotBytes(), want)
			}
			var prev memsys.Addr
			for i := 0; i < c.n; i++ {
				a, hot, err := b.Alloc(geom8x2.BlockSize, c.wantHot)
				if err != nil {
					t.Fatal(err)
				}
				if int64(a)%geom8x2.BlockSize != 0 {
					t.Fatalf("alloc %d at %v: not block aligned", i, a)
				}
				if want := i < c.hot; hot != want {
					t.Fatalf("alloc %d: hot = %v, want %v", i, hot, want)
				}
				if colored {
					want := -1
					if hot {
						want = 1
					}
					if got := blockColor(col, a, geom8x2.BlockSize); got != want {
						t.Fatalf("alloc %d at %v: color %d, want %d", i, a, got, want)
					}
				} else if i > 0 && a != prev.Add(geom8x2.BlockSize) {
					t.Fatalf("uncolored alloc %d at %v, want consecutive %v", i, a, prev.Add(geom8x2.BlockSize))
				}
				prev = a
			}
		})
	}
}

// TestBlocksHotBudgetLeftForLater checks that cold requests do not
// spend the hot budget: after any number of them, hot requests still
// get the full HotSets x Assoc blocks.
func TestBlocksHotBudgetLeftForLater(t *testing.T) {
	b := must(NewBlocks(memsys.NewArena(0), geom8x2, 0.5))
	for i := 0; i < 20; i++ {
		if _, hot, err := b.Alloc(64, false); err != nil || hot {
			t.Fatalf("cold alloc %d: hot=%v err=%v", i, hot, err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, hot, err := b.Alloc(64, true); err != nil || !hot {
			t.Fatalf("hot alloc %d after cold ones: hot=%v err=%v", i, hot, err)
		}
	}
	if _, hot, _ := b.Alloc(64, true); hot {
		t.Fatal("hot alloc past the budget landed hot")
	}
}

func TestBlocksPack(t *testing.T) {
	// Three 24-byte items: the first two share a block, the third
	// would straddle it and opens the next one.
	cases := []struct {
		name string
		frac float64
		hot  bool // hot flag of the first block
	}{
		{"colored", 0.5, true},
		{"uncolored", 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := must(NewBlocks(memsys.NewArena(0), geom8x2, c.frac))
			a0, h0, err := b.Pack(24, true)
			if err != nil {
				t.Fatal(err)
			}
			if int64(a0)%64 != 0 || h0 != c.hot {
				t.Fatalf("first item at %v hot=%v, want block start hot=%v", a0, h0, c.hot)
			}
			// The item shares the first block, so it carries that
			// block's flag whatever it asks for.
			a1, h1, err := b.Pack(24, false)
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a0.Add(24) || h1 != h0 {
				t.Fatalf("second item at %v hot=%v, want %v hot=%v", a1, h1, a0.Add(24), h0)
			}
			a2, _, err := b.Pack(24, true)
			if err != nil {
				t.Fatal(err)
			}
			if int64(a2)%64 != 0 || a2 == a0 {
				t.Fatalf("straddling item at %v, want a fresh block", a2)
			}
			// Exactly filling the rest of a block does not straddle.
			a3, _, err := b.Pack(40, true)
			if err != nil {
				t.Fatal(err)
			}
			if a3 != a2.Add(24) {
				t.Fatalf("filling item at %v, want %v", a3, a2.Add(24))
			}
		})
	}
}

func TestBlocksPackRunsOutOfHot(t *testing.T) {
	b := must(NewBlocks(memsys.NewArena(0), geom8x2, 0.5))
	col, _ := b.Coloring()
	for i := 0; i < 10; i++ {
		a, hot, err := b.Pack(64, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := i < 8; hot != want || col.IsHot(a) != want {
			t.Fatalf("block %d at %v: hot=%v IsHot=%v, want %v", i, a, hot, col.IsHot(a), want)
		}
	}
}

func TestBlocksClaimedEqualsExtents(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5} {
		arena := memsys.NewArena(0)
		b := must(NewBlocks(arena, geom8x2, frac))
		for i := 0; i < 300; i++ {
			if _, _, err := b.Alloc(64*int64(1+i%2), i%3 == 0); err != nil {
				t.Fatal(err)
			}
			if i%50 == 0 {
				// Someone else grows the arena, so extents stop
				// being adjacent.
				arena.Sbrk(100)
			}
		}
		var sum int64
		for _, e := range b.Extents() {
			sum += int64(e.End) - int64(e.Start)
		}
		if b.Claimed() != sum || sum == 0 {
			t.Errorf("frac %v: Claimed = %d, summed Extents = %d", frac, b.Claimed(), sum)
		}
	}
}

func TestBlocksErrors(t *testing.T) {
	ctor := []struct {
		name string
		geo  Geometry
		frac float64
		want error
	}{
		{"fraction 1", geom8x2, 1, cclerr.ErrInvalidArg},
		{"fraction above 1", geom8x2, 1.5, cclerr.ErrInvalidArg},
		{"one set", Geometry{Sets: 1, Assoc: 4, BlockSize: 64}, 0.5, cclerr.ErrBadGeometry},
		{"colored block size not a power of two", Geometry{Sets: 8, Assoc: 1, BlockSize: 48}, 0.5, cclerr.ErrBadGeometry},
		{"uncolored block size not a power of two", Geometry{Sets: 8, Assoc: 1, BlockSize: 48}, 0, cclerr.ErrBadGeometry},
		{"uncolored zero block size", Geometry{Sets: 8, Assoc: 1}, 0, cclerr.ErrBadGeometry},
	}
	for _, c := range ctor {
		if _, err := NewBlocks(memsys.NewArena(0), c.geo, c.frac); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	for _, frac := range []float64{0, 0.5} {
		b := must(NewBlocks(memsys.NewArena(0), geom8x2, frac))
		calls := []struct {
			name string
			call func() error
			want error
		}{
			{"Alloc(0)", func() error { _, _, err := b.Alloc(0, true); return err }, cclerr.ErrInvalidArg},
			{"Pack(0)", func() error { _, _, err := b.Pack(0, true); return err }, cclerr.ErrInvalidArg},
			{"Pack(65)", func() error { _, _, err := b.Pack(65, true); return err }, cclerr.ErrPlacementFailed},
		}
		for _, c := range calls {
			if err := c.call(); !errors.Is(err, c.want) {
				t.Errorf("frac %v %s: err = %v, want %v", frac, c.name, err, c.want)
			}
		}
	}
	// An extent longer than a color run cannot be colored.
	b := must(NewBlocks(memsys.NewArena(0), geom8x2, 0.5))
	if _, _, err := b.Alloc(5*64, false); !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Errorf("over-run cold Alloc: err = %v, want ErrPlacementFailed", err)
	}
}
