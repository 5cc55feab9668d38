package main

import (
	"ccl/internal/machine"
	"ccl/internal/mc"
	"ccl/internal/memsys"
	"ccl/internal/sim"
)

// The multicore part of serving-mc: 4-core Topologies with the
// default server-shaped caches.
const (
	topoCores    = 4
	topoIters    = 500  // counter increments per core per Counters call
	topoSlots    = 64   // int64 slots of the shared region, 8 granules
	topoSteps    = 8000 // steps of the benchmark's own loop per round
	granuleBytes = 64
)

type topoStep struct {
	core  int
	slot  int
	store bool
}

// topoStream runs mc.Counters packed and padded on 4-core topologies,
// then the benchmark's own loop over a shared region: each core
// increments its own slots, interleaved so neighbours share granules,
// and reads any slot. The loop runs on a 4-core and on a 1-core
// topology; a Go array models the region.
type topoStream struct {
	seed           int64
	packed, padded *machine.Topology
	tp4, tp1       *machine.Topology
	base4, base1   memsys.Addr
	model4, model1 []int64
	steps          []topoStep
	loads4, loads1 []int64
	finals         [][]int64

	counterOps, loopOps       int64
	loopNs4, loopNs1, loopAcc int64
	cohMisses                 int64
}

func newTopoStream(seed int64, tr *tracer) *topoStream {
	s := &topoStream{seed: seed, model4: make([]int64, topoSlots), model1: make([]int64, topoSlots)}
	tr.begin("topology.build", 0)
	mk := func(cores int) *machine.Topology {
		return sim.New().NewTopology(machine.DefaultTopologyConfig(cores))
	}
	s.packed, s.padded, s.tp4, s.tp1 = mk(topoCores), mk(topoCores), mk(topoCores), mk(1)
	for _, t := range []struct {
		tp   *machine.Topology
		base *memsys.Addr
	}{{s.tp4, &s.base4}, {s.tp1, &s.base1}} {
		t.tp.Arena.AlignBrk(granuleBytes)
		*t.base = t.tp.Arena.Sbrk(8 * topoSlots)
	}
	tr.end()
	return s
}

func (s *topoStream) name() string { return "topology" }

func (s *topoStream) prep(r int) {
	rng := rngFor(s.seed, "topology", r)
	s.steps = s.steps[:0]
	for i := 0; i < topoSteps; i++ {
		c := i % topoCores
		if rng.Intn(2) == 0 {
			s.steps = append(s.steps, topoStep{core: c, slot: topoCores*rng.Intn(topoSlots/topoCores) + c, store: true})
		} else {
			s.steps = append(s.steps, topoStep{core: c, slot: rng.Intn(topoSlots)})
		}
	}
}

// loop runs the steps on tp, core c of a step mapped to c % cores,
// and returns the loads, the step times and their sum.
func (s *topoStream) loop(tr *tracer, span string, tp *machine.Topology, base memsys.Addr, loads, lat []int64) ([]int64, []int64, int64) {
	id := 0
	if tr != nil {
		id = tr.name(span)
	}
	var busy int64
	for i, st := range s.steps {
		c := tp.Core(st.core % tp.Cores())
		a := base.Add(int64(8 * st.slot))
		t0 := nowNs()
		v := c.LoadInt(a)
		if st.store {
			c.StoreInt(a, v+1)
		}
		t1 := nowNs()
		busy += t1 - t0
		lat = append(lat, t1-t0)
		loads = append(loads, v)
		if tr != nil {
			tr.leaf(id, t0, t1, int64(i))
		}
	}
	return loads, lat, busy
}

func (s *topoStream) run(tr *tracer, lat []int64) []int64 {
	s.finals = s.finals[:0]
	for _, c := range []struct {
		tp     *machine.Topology
		stride int64
	}{{s.packed, 8}, {s.padded, granuleBytes}} {
		tr.begin("mc.counters", c.stride)
		t0 := nowNs()
		res, finals := mc.Counters(c.tp, mc.CounterConfig{Iters: topoIters, Stride: c.stride})
		dt := nowNs() - t0
		tr.end()
		for i := int64(0); i < res.Steps; i++ {
			lat = append(lat, dt/res.Steps)
		}
		s.finals = append(s.finals, finals)
		if tr != nil {
			s.counterOps += res.Steps
			s.cohMisses += res.CoherenceMisses()
		}
	}
	var ns4, ns1 int64
	s.loads4, lat, ns4 = s.loop(tr, "topology.step.4core", s.tp4, s.base4, s.loads4[:0], lat)
	s.loads1, lat, ns1 = s.loop(tr, "topology.step.1core", s.tp1, s.base1, s.loads1[:0], lat)
	if tr != nil {
		s.loopNs4 += ns4
		s.loopNs1 += ns1
		s.loopOps += int64(len(s.steps))
		for _, st := range s.steps {
			s.loopAcc++
			if st.store {
				s.loopAcc++
			}
		}
	}
	return lat
}

func (s *topoStream) check(rep *report) {
	var bad, ops int64
	for _, f := range s.finals {
		for core, v := range f {
			ops += topoIters
			if v != topoIters {
				checkf(rep, "mc.Counters: core %d counted %d, want %d", core, v, topoIters)
				bad += topoIters
			}
		}
	}
	for _, t := range []struct {
		model []int64
		loads []int64
	}{{s.model4, s.loads4}, {s.model1, s.loads1}} {
		for i, st := range s.steps {
			ops++
			if t.loads[i] != t.model[st.slot] {
				if bad == 0 {
					checkf(rep, "topology loop: step %d read %d from slot %d, want %d", i, t.loads[i], st.slot, t.model[st.slot])
				}
				bad++
			}
			if st.store {
				t.model[st.slot] = t.loads[i] + 1
			}
		}
	}
	rep.ops(ops, bad)
}

func (s *topoStream) sim() simStats {
	var st simStats
	for _, tp := range []*machine.Topology{s.packed, s.padded, s.tp4, s.tp1} {
		st.Cycles += tp.MaxCycles()
		for i := 0; i < tp.Cores(); i++ {
			st.Accesses += tp.PrivateCache(i).Stats().Levels[0].Accesses
		}
	}
	return st
}

func (s *topoStream) invalidations() int64 {
	var n int64
	for _, tp := range []*machine.Topology{s.packed, s.padded, s.tp4, s.tp1} {
		n += tp.Directory().Stats().InvalidationsSent
	}
	return n
}
