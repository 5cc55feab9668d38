package coherence

import (
	"errors"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// fakePort records snoops and simulates residency/dirtiness.
type fakePort struct {
	resident map[int64]bool
	dirty    map[int64]bool
	invals   int
	downs    int
}

func newFakePort() *fakePort {
	return &fakePort{resident: map[int64]bool{}, dirty: map[int64]bool{}}
}

func (p *fakePort) hold(block int64, dirty bool) {
	p.resident[block] = true
	p.dirty[block] = dirty
}

func (p *fakePort) Invalidate(addr memsys.Addr, span int64) (bool, bool) {
	p.invals++
	b := int64(addr) / span
	valid, dirty := p.resident[b], p.dirty[b]
	delete(p.resident, b)
	delete(p.dirty, b)
	return valid, dirty
}

func (p *fakePort) Downgrade(addr memsys.Addr, span int64) bool {
	p.downs++
	b := int64(addr) / span
	dirty := p.dirty[b]
	p.dirty[b] = false
	return dirty
}

func newTestDir(t *testing.T, cores int) (*Directory, []*fakePort) {
	t.Helper()
	d := New(cores, Config{BlockSize: 64})
	ports := make([]*fakePort, cores)
	for i := range ports {
		ports[i] = newFakePort()
		d.SetPort(i, ports[i])
	}
	return d, ports
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{BlockSize: 64}).Defaults().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{BlockSize: 0},
		{BlockSize: 48},
		{BlockSize: 64, SnoopLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); !errors.Is(err, cclerr.ErrBadGeometry) {
			t.Errorf("config %+v: error %v, want one wrapping %v", c, err, cclerr.ErrBadGeometry)
		}
	}
}

func TestNewPanicsOnBadCores(t *testing.T) {
	for _, cores := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", cores)
				}
			}()
			New(cores, Config{BlockSize: 64})
		}()
	}
}

func TestReadMissGrants(t *testing.T) {
	d, _ := newTestDir(t, 2)
	// First reader gets Exclusive.
	act := d.Transact(0, 0x100, false)
	if !act.Bus || act.Granted != Exclusive {
		t.Fatalf("first read: %+v, want bus + E", act)
	}
	// Second reader demotes both to Shared.
	act = d.Transact(1, 0x110, false) // same granule, different offset
	if !act.Bus || act.Granted != Shared {
		t.Fatalf("second read: %+v, want bus + S", act)
	}
	if d.State(0, 0x100) != Shared {
		t.Fatalf("core 0 state = %v, want S", d.State(0, 0x100))
	}
	// Re-read hits: no bus.
	if act := d.Transact(0, 0x100, false); act.Bus {
		t.Fatalf("read hit used the bus: %+v", act)
	}
	st := d.Stats()
	if st.Transactions != 2 || st.ExclusiveGrants != 1 || st.SharedGrants != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	d, ports := newTestDir(t, 3)
	for c := 0; c < 3; c++ {
		d.Transact(c, 0x200, false)
		ports[c].hold(0x200/64, false)
	}
	act := d.Transact(1, 0x200, true)
	if act.Granted != Modified || !act.Bus {
		t.Fatalf("upgrade: %+v", act)
	}
	if act.Invalidated != (1<<0 | 1<<2) {
		t.Fatalf("invalidated mask %b, want cores 0 and 2", act.Invalidated)
	}
	if d.State(0, 0x200) != Invalid || d.State(2, 0x200) != Invalid {
		t.Fatal("sharers not invalidated in directory")
	}
	st := d.Stats()
	if st.Upgrades != 1 || st.CopiesInvalidated != 2 || st.InvalidationsSent != 2 {
		t.Fatalf("stats %+v", st)
	}
	// The invalidated cores' next transactions are coherence misses.
	for _, c := range []int{0, 2} {
		act := d.Transact(c, 0x200, false)
		if !act.CoherenceMiss {
			t.Errorf("core %d reload not flagged as coherence miss: %+v", c, act)
		}
	}
	// Only once: the mark is consumed.
	d.Transact(0, 0x200, true)
	if act := d.Transact(0, 0x200, false); act.CoherenceMiss {
		t.Fatal("consumed mark fired twice")
	}
	if d.Stats().CoherenceMisses != 2 {
		t.Fatalf("coherence misses %d, want 2", d.Stats().CoherenceMisses)
	}
}

func TestStoreForcesWritebackOfRemoteModified(t *testing.T) {
	d, ports := newTestDir(t, 2)
	d.Transact(0, 0x300, true)
	ports[0].hold(0x300/64, true)
	act := d.Transact(1, 0x300, true)
	if !act.ForcedWB {
		t.Fatalf("RFO of remote M copy did not force writeback: %+v", act)
	}
	if act.ExtraLatency <= d.Config().SnoopLatency {
		t.Fatalf("writeback latency not charged: %+v", act)
	}
	if d.Stats().RFOs != 2 || d.Stats().ForcedWritebacks != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestReadDowngradesRemoteModified(t *testing.T) {
	d, ports := newTestDir(t, 2)
	d.Transact(0, 0x400, true)
	ports[0].hold(0x400/64, true)
	act := d.Transact(1, 0x400, false)
	if act.Granted != Shared || !act.ForcedWB {
		t.Fatalf("read of remote M: %+v, want S + forced WB", act)
	}
	if ports[0].downs != 1 {
		t.Fatalf("remote port saw %d downgrades, want 1", ports[0].downs)
	}
	if d.State(0, 0x400) != Shared {
		t.Fatalf("writer's state %v, want S", d.State(0, 0x400))
	}
	// The downgraded core was NOT invalidated: its reload is a hit,
	// not a coherence miss.
	if act := d.Transact(0, 0x400, false); act.Bus || act.CoherenceMiss {
		t.Fatalf("downgraded copy reload: %+v, want silent hit", act)
	}
}

func TestSilentExclusiveUpgrade(t *testing.T) {
	d, _ := newTestDir(t, 2)
	d.Transact(0, 0x500, false) // E
	act := d.Transact(0, 0x500, true)
	if act.Bus || act.Granted != Modified {
		t.Fatalf("E->M upgrade: %+v, want silent M", act)
	}
	if d.Stats().Transactions != 1 {
		t.Fatalf("silent upgrade used the bus")
	}
}

func TestInvalidationHook(t *testing.T) {
	d, ports := newTestDir(t, 2)
	var hookAddr memsys.Addr
	var hookSpan int64
	d.SetInvalidationHook(0, func(a memsys.Addr, span int64) { hookAddr, hookSpan = a, span })
	d.Transact(0, 0x640, false)
	ports[0].hold(0x640/64, false)
	d.Transact(1, 0x650, true)
	if hookAddr != 0x640 || hookSpan != 64 {
		t.Fatalf("hook got (%#x, %d), want (0x640, 64)", int64(hookAddr), hookSpan)
	}
	// Invalidation of a silently-evicted (non-resident) copy fires no
	// hook and sets no pending mark.
	d.Transact(0, 0x700, false) // directory says E, but port never held it
	hookAddr = 0
	d.Transact(1, 0x700, true)
	if hookAddr != 0 {
		t.Fatal("hook fired for a non-resident copy")
	}
	if act := d.Transact(0, 0x700, false); act.CoherenceMiss {
		t.Fatal("non-resident invalidation left a pending mark")
	}
}

func TestStatsEach(t *testing.T) {
	d, _ := newTestDir(t, 2)
	d.Transact(0, 0, true)
	names := map[string]int64{}
	d.Stats().Each(func(n string, v int64) { names[n] = v })
	for _, want := range []string{
		"coh.transactions", "coh.rfos", "coh.coherence_misses", "coh.extra_cycles",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("Each missing %q", want)
		}
	}
	if names["coh.transactions"] != 1 || names["coh.rfos"] != 1 {
		t.Fatalf("counters %v", names)
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(7): "?"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", st, got, want)
		}
	}
}
