package faults

import (
	"errors"
	"reflect"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/sim"
	"ccl/internal/trace"
	"ccl/internal/trees"
)

func TestFailNthFiresExactOccurrence(t *testing.T) {
	in := NewInjector().FailNth(ArenaGrow, 3)
	for i := 1; i <= 5; i++ {
		err := in.Check(ArenaGrow)
		if i == 3 {
			if !errors.Is(err, cclerr.ErrFaultInjected) {
				t.Fatalf("occurrence 3: err = %v, want ErrFaultInjected", err)
			}
		} else if err != nil {
			t.Fatalf("occurrence %d unexpectedly failed: %v", i, err)
		}
	}
	if in.Count(ArenaGrow) != 5 || in.Fired(ArenaGrow) != 1 {
		t.Fatalf("count=%d fired=%d, want 5/1", in.Count(ArenaGrow), in.Fired(ArenaGrow))
	}
}

func TestFailNthIgnoresNonPositive(t *testing.T) {
	in := NewInjector().FailNth(ArenaGrow, 0).FailNth(ArenaGrow, -2)
	if got := in.Scheduled(ArenaGrow); len(got) != 0 {
		t.Fatalf("non-positive occurrences scheduled: %v", got)
	}
}

func TestSeedIsReproducible(t *testing.T) {
	a := NewInjector().Seed(7, 4)
	b := NewInjector().Seed(7, 4)
	c := NewInjector().Seed(8, 4)
	for _, p := range Points() {
		if !reflect.DeepEqual(a.Scheduled(p), b.Scheduled(p)) {
			t.Fatalf("%s: same seed diverged: %v vs %v", p, a.Scheduled(p), b.Scheduled(p))
		}
		if len(a.Scheduled(p)) == 0 {
			t.Fatalf("%s: seed scheduled nothing", p)
		}
	}
	same := true
	for _, p := range Points() {
		if !reflect.DeepEqual(a.Scheduled(p), c.Scheduled(p)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules across every point")
	}
}

func TestArmArenaFailsScheduledGrow(t *testing.T) {
	a := memsys.NewArena(0)
	NewInjector().FailNth(ArenaGrow, 2).ArmArena(a)
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("first grow: %v", err)
	}
	brk := a.Brk()
	_, err := a.Grow(8)
	if !errors.Is(err, cclerr.ErrOutOfMemory) || !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("second grow err = %v, want ErrOutOfMemory and ErrFaultInjected", err)
	}
	if a.Brk() != brk {
		t.Fatal("failed grow moved the break")
	}
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("third grow should recover: %v", err)
	}
}

func TestArmSimGrowGuard(t *testing.T) {
	s := sim.New()
	NewInjector().FailNth(ArenaGrow, 1).ArmSim(s)
	a := s.NewArena(0) // every arena of the run context sees the schedule
	if _, err := a.Grow(8); !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("armed context: err = %v, want ErrFaultInjected", err)
	}
	// An unrelated context in the same process is untouched: arming is
	// instance-scoped, not process-wide.
	other := sim.New().NewArena(0)
	if _, err := other.Grow(8); err != nil {
		t.Fatalf("unrelated context failing: %v", err)
	}
	s.SetGrowGuard(nil)
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("disarmed guard still failing: %v", err)
	}
}

func TestBudgetAllocatorExhaustion(t *testing.T) {
	a := memsys.NewArena(0)
	b := NewInjector().Budget(heap.New(a), 100)
	if _, err := b.Alloc(60); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	if b.Remaining() != 40 {
		t.Fatalf("Remaining = %d, want 40", b.Remaining())
	}
	_, err := b.Alloc(60)
	if !errors.Is(err, cclerr.ErrOutOfMemory) || !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("over-budget err = %v, want ErrOutOfMemory and ErrFaultInjected", err)
	}
	// A smaller request that fits the remaining budget still succeeds:
	// the budget models traffic, not a latched failure state.
	p, err := b.AllocHint(30, memsys.NilAddr)
	if err != nil {
		t.Fatalf("within-budget alloc after failure: %v", err)
	}
	if err := b.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if b.HeapBytes() == 0 {
		t.Fatal("HeapBytes not delegated")
	}
}

func TestArmPlacerVetoesPlacement(t *testing.T) {
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	tr := trees.MustBuild(m, alloc, 200, trees.RandomOrder, 1)

	placer, err := ccmorph.NewPlacer(m.Arena, ccmorph.Config{
		Geometry: layout.Geometry{Sets: 64, Assoc: 1, BlockSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	NewInjector().FailNth(PlaceCluster, 1).ArmPlacer(placer)
	_, merr := tr.MorphWith(placer, nil)
	if !errors.Is(merr, cclerr.ErrPlacementFailed) || !errors.Is(merr, cclerr.ErrFaultInjected) {
		t.Fatalf("vetoed placement err = %v, want ErrPlacementFailed and ErrFaultInjected", merr)
	}
	// Copy-then-commit: the aborted reorganization must leave the
	// original tree fully searchable.
	if err := tr.CheckSearchable(); err != nil {
		t.Fatalf("tree damaged by aborted morph: %v", err)
	}
}

func TestCorruptTraceFailsDecodeTyped(t *testing.T) {
	tr, ok := trace.FromBytes([]byte("deterministic-seed-material-for-a-trace-0123456789"))
	if !ok {
		t.Fatal("FromBytes rejected seed material")
	}
	enc := tr.Encode()
	in := NewInjector().FailNth(TraceRecord, 1).FailNth(TraceRecord, 2)
	bad := in.Corrupt(enc)
	if in.Fired(TraceRecord) != 2 {
		t.Fatalf("fired %d corruptions, want 2", in.Fired(TraceRecord))
	}
	if reflect.DeepEqual(bad, enc) {
		t.Fatal("Corrupt returned unchanged bytes")
	}
	if _, err := trace.Decode(bad); err != nil && !errors.Is(err, cclerr.ErrCorruptTrace) {
		t.Fatalf("Decode err = %v, want ErrCorruptTrace", err)
	}
	// The original buffer must be untouched (Corrupt copies).
	if _, err := trace.Decode(enc); err != nil {
		t.Fatalf("Corrupt damaged its input: %v", err)
	}
}

func TestServePointsAreDistinctAndCheckable(t *testing.T) {
	// The serve-layer points are deliberately not in Points() — that
	// would silently reshuffle every historical Seed schedule — but
	// they must be schedulable and countable like any other point.
	seen := map[Point]bool{}
	for _, p := range Points() {
		seen[p] = true
	}
	for _, p := range ServePoints() {
		if seen[p] {
			t.Fatalf("serve point %s collides with a structure-level point", p)
		}
		in := NewInjector().FailNth(p, 2)
		if err := in.Check(p); err != nil {
			t.Fatalf("%s occurrence 1 unexpectedly failed: %v", p, err)
		}
		if err := in.Check(p); !errors.Is(err, cclerr.ErrFaultInjected) {
			t.Fatalf("%s occurrence 2: err = %v, want ErrFaultInjected", p, err)
		}
	}
}
