package serving

import (
	"errors"
	"fmt"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/faults"
	"ccl/internal/machine"
)

// The fault sweep: scheduled arena-growth and cluster-placement
// failures across the KV resize and LRU evict/rebuild paths. Every
// provoked failure must be a typed, fault-classified error; the
// structure must stay consistent (copy-then-commit), every
// previously acknowledged write must survive, and once the scheduled
// fault has fired the structure must serve again.

// checkInjected fails the test unless err is a classified fault
// injection.
func checkInjected(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("%s failed with a non-injected error: %v", op, err)
	}
	if cclerr.Class(err) == "" {
		t.Fatalf("%s returned an unclassified error: %v", op, err)
	}
}

// sweepKV drives puts 1..keys through a store with one scheduled
// fault and verifies the degradation contract at the failure point.
func sweepKV(t *testing.T, arm func(*faults.Injector, *machine.Machine) KVConfig, n int64) (faulted bool) {
	t.Helper()
	m := machine.NewScaled(16)
	in := faults.NewInjector().FailNth(faults.ArenaGrow, n).FailNth(faults.PlaceCluster, n)
	cfg := arm(in, m)
	kv, err := NewKV(m, cfg)
	if err != nil {
		checkInjected(t, "NewKV", err)
		return true
	}
	acked := map[uint32]int64{}
	const keys = 400
	recovered := false
	for k := uint32(1); k <= keys; k++ {
		v := valueFor(k, int64(k))
		if err := kv.Put(k, v); err != nil {
			checkInjected(t, fmt.Sprintf("Put(%d)", k), err)
			faulted = true
			if ierr := kv.CheckInvariants(); ierr != nil {
				t.Fatalf("store inconsistent after injected Put(%d) failure: %v", k, ierr)
			}
			for ak, av := range acked {
				if got, ok := kv.Get(ak); !ok || got != av {
					t.Fatalf("acked key %d lost after injected failure: (%d, %v)", ak, got, ok)
				}
			}
			continue
		}
		if faulted {
			recovered = true
		}
		acked[k] = v
	}
	if faulted && !recovered {
		t.Fatal("store never recovered after the scheduled fault")
	}
	if err := kv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return faulted
}

// TestKVFaultSweep sweeps the fault ordinal across the resize path
// for both failure points. Low ordinals hit construction, middle ones
// the doubling resizes, high ones fall after the run (no fault, which
// is fine — the sweep's job is covering the schedule space).
func TestKVFaultSweep(t *testing.T) {
	armGrow := func(in *faults.Injector, m *machine.Machine) KVConfig {
		in.ArmArena(m.Arena)
		return KVConfig{Layout: KVSplit, Placement: KVCCMalloc, Slots: 8}
	}
	armPlace := func(in *faults.Injector, m *machine.Machine) KVConfig {
		return KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 8,
			PlaceGuard: func() error { return in.Check(faults.PlaceCluster) }}
	}
	anyGrow, anyPlace := false, false
	for n := int64(1); n <= 12; n++ {
		anyGrow = sweepKV(t, armGrow, n) || anyGrow
		anyPlace = sweepKV(t, armPlace, n) || anyPlace
	}
	if !anyGrow {
		t.Error("no arena-grow schedule ever fired on the KV resize path")
	}
	if !anyPlace {
		t.Error("no place-cluster schedule ever fired on the KV placement path")
	}
	// A placement veto mid-resize must surface as a typed placement
	// failure, not a silent degradation: colored placement is the
	// structure's contract.
	m := machine.NewScaled(16)
	kv, err := NewKV(m, KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 8,
		PlaceGuard: func() error { return cclerr.ErrFaultInjected }})
	if !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("NewKV with vetoing guard: (%v, %v), want ErrPlacementFailed", kv, err)
	}
}

// TestLRUFaultSweep sweeps arena-growth failures across the LRU's
// insert/evict/rebuild cycle, and place-cluster vetoes across its
// hinted placements — which degrade to conventional placement rather
// than fail, mirroring ccmalloc's own contract.
func TestLRUFaultSweep(t *testing.T) {
	anyFault := false
	for n := int64(1); n <= 12; n++ {
		m := machine.NewScaled(16)
		in := faults.NewInjector().FailNth(faults.ArenaGrow, n)
		in.ArmArena(m.Arena)
		c, err := NewLRU(m, LRUConfig{Capacity: 8, IndexSlots: 32, Placement: LRUCCMalloc, Split: true})
		if err != nil {
			checkInjected(t, "NewLRU", err)
			anyFault = true
			continue
		}
		acked := map[uint32]int64{}
		faulted, recovered := false, false
		for k := uint32(1); k <= 200; k++ {
			v := valueFor(k, int64(k))
			if err := c.Put(k, v); err != nil {
				checkInjected(t, fmt.Sprintf("Put(%d)", k), err)
				faulted = true
				anyFault = true
				if ierr := c.CheckInvariants(); ierr != nil {
					t.Fatalf("n=%d: cache inconsistent after injected Put(%d) failure: %v", n, k, ierr)
				}
				continue
			}
			if faulted {
				recovered = true
			}
			acked[k] = v
		}
		if faulted && !recovered {
			t.Fatalf("n=%d: cache never recovered after the scheduled fault", n)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The most recently acked keys up to capacity must be resident
		// with their acked values.
		st := c.Stats()
		for k := uint32(200); k > 200-uint32(st.Len); k-- {
			if v, ok := acked[k]; ok {
				if got, gok := c.Get(k); !gok || got != v {
					t.Fatalf("n=%d: resident key %d lost: (%d, %v)", n, k, got, gok)
				}
			}
		}
	}
	if !anyFault {
		t.Error("no arena-grow schedule ever fired on the LRU path")
	}

	// Place-cluster vetoes degrade hinted placements without failing
	// the op.
	m := machine.NewScaled(16)
	in := faults.NewInjector()
	for i := int64(1); i <= 64; i++ {
		in.FailNth(faults.PlaceCluster, i*2) // every other hinted placement
	}
	c, err := NewLRU(m, LRUConfig{Capacity: 16, Placement: LRUCCMalloc,
		PlaceGuard: func() error { return in.Check(faults.PlaceCluster) }})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 100; k++ {
		if err := c.Put(k, int64(k)); err != nil {
			t.Fatalf("Put(%d) failed under degrading vetoes: %v", k, err)
		}
	}
	if st := c.Stats(); st.PlaceDegraded == 0 {
		t.Fatal("no hinted placement was ever degraded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsReportsCorruption corrupts one header of each
// structure through uncharged arena stores (a KV slot's state word,
// the LRU list's tail pointer, the PQueue root's priority) and
// requires CheckInvariants to fail with a corrupt-structure error
// that cclerr classifies as such.
func TestCheckInvariantsReportsCorruption(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, m *machine.Machine) (check func() error, corrupt func())
	}{
		{"kv slot state", func(t *testing.T, m *machine.Machine) (func() error, func()) {
			kv, err := NewKV(m, KVConfig{Layout: KVSplit, Placement: KVMalloc, Slots: 16})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint32(1); k <= 4; k++ {
				if err := kv.Put(k, valueFor(k, 1)); err != nil {
					t.Fatal(err)
				}
			}
			return kv.CheckInvariants, func() {
				ArenaMem(kv.arena).StoreInt(kv.headerAddr(&kv.tab, 0), kvHeader(9, 3)) // no such state
			}
		}},
		{"lru tail pointer", func(t *testing.T, m *machine.Machine) (func() error, func()) {
			c, err := NewLRU(m, LRUConfig{Capacity: 4, Placement: LRUMalloc})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint32(1); k <= 3; k++ {
				if err := c.Put(k, int64(k)); err != nil {
					t.Fatal(err)
				}
			}
			return c.CheckInvariants, func() {
				w := ArenaMem(c.arena)
				w.StoreAddr(c.hdr.Add(4), w.LoadAddr(c.hdr)) // tail := head
			}
		}},
		{"pqueue root priority", func(t *testing.T, m *machine.Machine) (func() error, func()) {
			q, err := NewPQueue(m, PQConfig{Arity: 4, Cap: 8})
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(1); p <= 5; p++ {
				if err := q.Push(p, p); err != nil {
					t.Fatal(err)
				}
			}
			return q.CheckInvariants, func() {
				ArenaMem(q.arena).StoreInt(q.elem(0).Add(pqOffPri), 1<<40)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.NewScaled(16)
			check, corrupt := tc.build(t, m)
			if err := check(); err != nil {
				t.Fatalf("intact structure failed its check: %v", err)
			}
			before := m.Stats()
			corrupt()
			err := check()
			if !errors.Is(err, cclerr.ErrCorruptStructure) {
				t.Fatalf("CheckInvariants after corruption = %v, want ErrCorruptStructure", err)
			}
			if got := cclerr.Class(err); got != "corrupt-structure" {
				t.Fatalf("cclerr.Class = %q, want corrupt-structure", got)
			}
			if after := m.Stats(); after.TotalCycles() != before.TotalCycles() {
				t.Fatalf("corruption or check charged the cache: %d -> %d cycles",
					before.TotalCycles(), after.TotalCycles())
			}
		})
	}
}
