package main

import (
	"container/heap"
	"container/list"
	"fmt"

	"ccl/internal/apps/serving"
	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/sim"
)

// Serving sizing follows the serving experiment: a 64 KB direct-mapped
// last level with 64-byte blocks, Zipfian keys at s = 0.99.
const (
	servingScale = 16
	zipfS        = 0.99

	kvKeys      = 4096
	kvInitSlots = 1024 // the warm fill resizes twice, to 4096 slots
	kvOps       = 20000
	kvPutEvery  = 4

	lruKeys  = 8192
	lruCap   = 1024
	lruIndex = 4096
	lruSteps = 16000 // cache-aside gets; each miss adds a put

	pqArity = 4
	pqCap   = 8192
	pqFill  = 4096
	pqHolds = 10000 // each hold is a pop and a push
	pqDelay = 1 << 16
)

func zipfFor(seed int64, salt string, r int, n int64) *serving.Zipf {
	z, err := serving.NewZipf(rngFor(seed, salt, r).Int63(), zipfS, n)
	if err != nil {
		panic(err) // constant, valid parameters
	}
	return z
}

// valueFor is the payload the benchmark stores for key at op i.
func valueFor(key uint32, i int) int64 { return int64(key)<<32 | int64(i&0x7fffffff) }

// ---- KV ----

type kvOp struct {
	key uint32
	put bool
	val int64
}

type kvOut struct {
	val int64
	ok  bool
	err error
}

// kvStream drives a KV store: Zipfian gets, with every kvPutEvery-th
// op an overwrite of a resident key. A Go map models the store.
type kvStream struct {
	span                                string
	salt                                string
	seed                                int64
	m                                   *machine.Machine
	kv                                  *serving.KV
	twin                                *serving.KV // traced only: identical store over uncharged memory
	model                               map[uint32]int64
	ops                                 []kvOp
	out                                 []kvOut
	gets, puts, probes, twinNs, twinOps int64
}

// newKVStream builds a store of layout cfg, warm-filled. Its key
// stream depends on the layout only, so every workload that drives a
// layout sees the same keys. observe, if not nil, attaches an observer
// to the store's hierarchy before the warm fill.
func newKVStream(seed int64, span string, cfg serving.KVConfig, tr *tracer, rs *recorders, observe func(*cache.Hierarchy)) (*kvStream, error) {
	cfg.Slots = kvInitSlots
	s := &kvStream{span: span, salt: fmt.Sprintf("kv.%v-%v", cfg.Layout, cfg.Placement), seed: seed, model: map[uint32]int64{}}
	build := func() (*machine.Machine, *serving.KV, error) {
		m := sim.New().NewScaled(servingScale)
		kv, err := serving.NewKV(m, cfg)
		return m, kv, err
	}
	var err error
	if s.m, s.kv, err = build(); err != nil {
		return nil, err
	}
	if observe != nil {
		observe(s.m.Cache)
	}
	rs.attach(s.m, span)
	tr.begin("serving.kv.warm", 0)
	err = kvWarm(s.kv, s.model)
	tr.end()
	if err != nil {
		return nil, err
	}
	resetStats(s.m)
	if tr != nil {
		m, twin, err := build()
		if err != nil {
			return nil, err
		}
		if err := kvWarm(twin, map[uint32]int64{}); err != nil {
			return nil, err
		}
		twin.UseMem(serving.ArenaMem(m.Arena))
		s.twin = twin
	}
	return s, nil
}

// kvWarm inserts every resident key (serving.PresentKey); the other
// third of the key space stays absent, so lookups of it miss.
func kvWarm(kv *serving.KV, model map[uint32]int64) error {
	for k := uint32(1); k <= kvKeys; k++ {
		if !serving.PresentKey(k) {
			continue
		}
		if err := kv.Put(k, valueFor(k, 0)); err != nil {
			return err
		}
		model[k] = valueFor(k, 0)
	}
	return nil
}

func (s *kvStream) name() string { return s.span }

func (s *kvStream) prep(r int) {
	z := zipfFor(s.seed, s.salt, r, kvKeys)
	s.ops = s.ops[:0]
	for i := 0; i < kvOps; i++ {
		k := z.Next()
		if i%kvPutEvery == kvPutEvery-1 {
			if !serving.PresentKey(k) {
				k-- // k%3 == 0 implies k >= 3, and k-1 is resident
			}
			s.ops = append(s.ops, kvOp{key: k, put: true, val: valueFor(k, r*kvOps+i+1)})
			continue
		}
		s.ops = append(s.ops, kvOp{key: k})
	}
}

func kvDo(kv *serving.KV, op kvOp) kvOut {
	if op.put {
		return kvOut{err: kv.Put(op.key, op.val)}
	}
	v, ok := kv.Get(op.key)
	return kvOut{val: v, ok: ok}
}

func (s *kvStream) run(tr *tracer, lat []int64) []int64 {
	s.out = s.out[:0]
	before := s.kv.Stats().Probes
	if tr == nil {
		for _, op := range s.ops {
			t0 := nowNs()
			o := kvDo(s.kv, op)
			lat = append(lat, nowNs()-t0)
			s.out = append(s.out, o)
		}
		return lat
	}
	getID, putID := tr.name("serving.kv.get"), tr.name("serving.kv.put")
	for i, op := range s.ops {
		t0 := tr.now()
		o := kvDo(s.kv, op)
		t1 := tr.now()
		id := getID
		if op.put {
			id = putID
			s.puts++
		} else {
			s.gets++
		}
		tr.leaf(id, t0, t1, int64(i))
		lat = append(lat, t1-t0)
		s.out = append(s.out, o)
	}
	s.probes += s.kv.Stats().Probes - before
	return lat
}

func (s *kvStream) check(rep *report) {
	var bad int64
	if s.twin != nil {
		t0 := nowNs()
		for i, op := range s.ops {
			if o := kvDo(s.twin, op); o != s.out[i] {
				if bad == 0 {
					checkf(rep, "%s: op %d on the uncharged twin gave %+v, charged %+v", s.span, i, o, s.out[i])
				}
				bad++
			}
		}
		s.twinNs += nowNs() - t0
		s.twinOps += int64(len(s.ops))
	}
	for i, op := range s.ops {
		o := s.out[i]
		if op.put {
			if o.err != nil {
				checkf(rep, "%s: put(%d): %v", s.span, op.key, o.err)
				bad++
				continue
			}
			s.model[op.key] = op.val
			continue
		}
		want, ok := s.model[op.key]
		if o.ok != ok || o.val != want {
			if bad == 0 {
				checkf(rep, "%s: get(%d) = %d,%v, want %d,%v", s.span, op.key, o.val, o.ok, want, ok)
			}
			bad++
		}
	}
	rep.ops(int64(len(s.ops)), bad)
}

func (s *kvStream) sim() simStats { return fromCache(s.m.Stats()) }

// ---- LRU ----

type lruOut struct {
	val    int64
	hit    bool
	putErr error
}

// lruStream drives a cache-aside LRU at capacity: get, and on a miss
// put, which evicts. An exact LRU model in Go checks every result.
type lruStream struct {
	seed                        int64
	m                           *machine.Machine
	c                           *serving.LRU
	twin                        *serving.LRU
	model                       *lruModel
	keys                        []uint32
	out                         []lruOut
	gets, hits, twinNs, twinOps int64
}

func newLRUStream(seed int64, tr *tracer, rs *recorders) (*lruStream, error) {
	cfg := serving.LRUConfig{Capacity: lruCap, IndexSlots: lruIndex}
	s := &lruStream{seed: seed, model: newLRUModel(lruCap)}
	build := func() (*machine.Machine, *serving.LRU, error) {
		m := sim.New().NewScaled(servingScale)
		c, err := serving.NewLRU(m, cfg)
		return m, c, err
	}
	var err error
	if s.m, s.c, err = build(); err != nil {
		return nil, err
	}
	rs.attach(s.m, s.name())
	z := zipfFor(seed, "lru", -1, lruKeys)
	var warm []uint32
	for i := 0; i < 2*lruCap; i++ {
		warm = append(warm, z.Next())
	}
	tr.begin("serving.lru.warm", 0)
	err = lruWarm(s.c, s.model, warm)
	tr.end()
	if err != nil {
		return nil, err
	}
	resetStats(s.m)
	if tr != nil {
		m, twin, err := build()
		if err != nil {
			return nil, err
		}
		if err := lruWarm(twin, newLRUModel(lruCap), warm); err != nil {
			return nil, err
		}
		twin.UseMem(serving.ArenaMem(m.Arena))
		s.twin = twin
	}
	return s, nil
}

func lruWarm(c *serving.LRU, model *lruModel, keys []uint32) error {
	for i, k := range keys {
		if _, hit := c.Get(k); hit {
			model.get(k)
			continue
		}
		if err := c.Put(k, valueFor(k, i)); err != nil {
			return err
		}
		model.put(k, valueFor(k, i))
	}
	return nil
}

func (s *lruStream) name() string { return "serving.lru" }

func (s *lruStream) prep(r int) {
	z := zipfFor(s.seed, "lru", r, lruKeys)
	s.keys = s.keys[:0]
	for i := 0; i < lruSteps; i++ {
		s.keys = append(s.keys, z.Next())
	}
}

func lruDo(c *serving.LRU, k uint32, val int64) lruOut {
	v, hit := c.Get(k)
	if hit {
		return lruOut{val: v, hit: true}
	}
	return lruOut{putErr: c.Put(k, val)}
}

func (s *lruStream) run(tr *tracer, lat []int64) []int64 {
	s.out = s.out[:0]
	opID := 0
	if tr != nil {
		opID = tr.name("serving.lru.op")
	}
	for i, k := range s.keys {
		t0 := nowNs()
		v, hit := s.c.Get(k)
		t1 := nowNs()
		lat = append(lat, t1-t0)
		o := lruOut{val: v, hit: hit}
		if !hit {
			o.putErr = s.c.Put(k, valueFor(k, i))
			t2 := nowNs()
			lat = append(lat, t2-t1)
			if tr != nil {
				tr.leaf(opID, t1, t2, int64(i))
			}
		}
		if tr != nil {
			tr.leaf(opID, t0, t1, int64(i))
			s.gets++
			if hit {
				s.hits++
			}
		}
		s.out = append(s.out, o)
	}
	return lat
}

func (s *lruStream) check(rep *report) {
	var bad, ops int64
	if s.twin != nil {
		t0 := nowNs()
		for i, k := range s.keys {
			if o := lruDo(s.twin, k, valueFor(k, i)); o != s.out[i] {
				if bad == 0 {
					checkf(rep, "lru: step %d on the uncharged twin gave %+v, charged %+v", i, o, s.out[i])
				}
				bad++
			}
		}
		s.twinNs += nowNs() - t0
		s.twinOps += int64(len(s.keys))
	}
	for i, k := range s.keys {
		o := s.out[i]
		ops++
		want, ok := s.model.get(k)
		if o.hit != ok || (ok && o.val != want) {
			if bad == 0 {
				checkf(rep, "lru: get(%d) = %d,%v, want %d,%v", k, o.val, o.hit, want, ok)
			}
			bad++
		}
		if !o.hit {
			ops++
			if o.putErr != nil {
				checkf(rep, "lru: put(%d): %v", k, o.putErr)
				bad++
			}
			if !ok {
				s.model.put(k, valueFor(k, i))
			}
		}
	}
	rep.ops(ops, bad)
}

func (s *lruStream) sim() simStats { return fromCache(s.m.Stats()) }

// lruModel is an exact LRU cache: a recency list and a key index.
type lruModel struct {
	cap   int
	order *list.List // front = most recent; values are lruEntry
	index map[uint32]*list.Element
}

type lruEntry struct {
	key uint32
	val int64
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, order: list.New(), index: map[uint32]*list.Element{}}
}

func (m *lruModel) get(k uint32) (int64, bool) {
	e, ok := m.index[k]
	if !ok {
		return 0, false
	}
	m.order.MoveToFront(e)
	return e.Value.(lruEntry).val, true
}

func (m *lruModel) put(k uint32, v int64) {
	if m.order.Len() >= m.cap {
		tail := m.order.Back()
		delete(m.index, tail.Value.(lruEntry).key)
		m.order.Remove(tail)
	}
	m.index[k] = m.order.PushFront(lruEntry{k, v})
}

// ---- priority queue ----

type pqOut struct {
	pri, pay int64
	ok       bool
	err      error
}

// pqStream runs the hold model on a 4-ary heap: pop the minimum, push
// it back a Zipfian delay later. A sorted multiset checks the pops.
type pqStream struct {
	seed            int64
	m               *machine.Machine
	q               *serving.PQueue
	twin            *serving.PQueue
	model           pqModel
	delays          []int64
	out             []pqOut
	twinNs, twinOps int64
}

func newPQStream(seed int64, tr *tracer, rs *recorders) (*pqStream, error) {
	cfg := serving.PQConfig{Arity: pqArity, Cap: pqCap}
	s := &pqStream{seed: seed, model: pqModel{pairs: map[[2]int64]int{}}}
	build := func() (*machine.Machine, *serving.PQueue, error) {
		m := sim.New().NewScaled(servingScale)
		q, err := serving.NewPQueue(m, cfg)
		return m, q, err
	}
	var err error
	if s.m, s.q, err = build(); err != nil {
		return nil, err
	}
	rs.attach(s.m, s.name())
	rng := rngFor(seed, "pq", -1)
	var fill []int64
	for i := 0; i < pqFill; i++ {
		fill = append(fill, rng.Int63n(1<<30))
	}
	tr.begin("serving.pq.fill", 0)
	for i, p := range fill {
		if err := s.q.Push(p, int64(i)); err != nil {
			return nil, err
		}
		s.model.push(p, int64(i))
	}
	tr.end()
	resetStats(s.m)
	if tr != nil {
		m, twin, err := build()
		if err != nil {
			return nil, err
		}
		for i, p := range fill {
			if err := twin.Push(p, int64(i)); err != nil {
				return nil, err
			}
		}
		twin.UseMem(serving.ArenaMem(m.Arena))
		s.twin = twin
	}
	return s, nil
}

func (s *pqStream) name() string { return "serving.pq" }

func (s *pqStream) prep(r int) {
	z := zipfFor(s.seed, "pq", r, pqDelay)
	s.delays = s.delays[:0]
	for i := 0; i < pqHolds; i++ {
		s.delays = append(s.delays, int64(z.Next()))
	}
}

func pqHold(q *serving.PQueue, delay int64) pqOut {
	pri, pay, ok := q.Pop()
	if !ok {
		return pqOut{}
	}
	return pqOut{pri: pri, pay: pay, ok: true, err: q.Push(pri+delay, pay+1)}
}

func (s *pqStream) run(tr *tracer, lat []int64) []int64 {
	s.out = s.out[:0]
	opID := 0
	if tr != nil {
		opID = tr.name("serving.pq.op")
	}
	for i, d := range s.delays {
		t0 := nowNs()
		pri, pay, ok := s.q.Pop()
		t1 := nowNs()
		var err error
		if ok {
			err = s.q.Push(pri+d, pay+1)
		}
		t2 := nowNs()
		lat = append(lat, t1-t0, t2-t1)
		if tr != nil {
			tr.leaf(opID, t0, t1, int64(2*i))
			tr.leaf(opID, t1, t2, int64(2*i+1))
		}
		s.out = append(s.out, pqOut{pri: pri, pay: pay, ok: ok, err: err})
	}
	return lat
}

func (s *pqStream) check(rep *report) {
	var bad int64
	if s.twin != nil {
		t0 := nowNs()
		for i, d := range s.delays {
			if o := pqHold(s.twin, d); o != s.out[i] {
				if bad == 0 {
					checkf(rep, "pq: hold %d on the uncharged twin gave %+v, charged %+v", i, o, s.out[i])
				}
				bad++
			}
		}
		s.twinNs += nowNs() - t0
		s.twinOps += 2 * int64(len(s.delays))
	}
	last := int64(-1)
	for i, o := range s.out {
		want := s.model.min()
		if !o.ok || o.err != nil || o.pri != want || o.pri < last || !s.model.remove(o.pri, o.pay) {
			if bad == 0 {
				checkf(rep, "pq: hold %d popped %+v, want priority %d after %d", i, o, want, last)
			}
			bad++
			continue
		}
		last = o.pri
		s.model.push(o.pri+s.delays[i], o.pay+1)
	}
	rep.ops(2*int64(len(s.out)), bad)
}

func (s *pqStream) sim() simStats { return fromCache(s.m.Stats()) }

// pqModel is a sorted multiset of (priority, payload) pairs: a heap of
// priorities plus pair counts.
type pqModel struct {
	pris  int64Heap
	pairs map[[2]int64]int
}

func (m *pqModel) push(pri, pay int64) {
	heap.Push(&m.pris, pri)
	m.pairs[[2]int64{pri, pay}]++
}

func (m *pqModel) min() int64 {
	if len(m.pris) == 0 {
		return -1
	}
	return m.pris[0]
}

// remove takes the minimum priority, which must be pri, with payload
// pay; it reports whether that pair was present.
func (m *pqModel) remove(pri, pay int64) bool {
	k := [2]int64{pri, pay}
	if m.pairs[k] == 0 {
		return false
	}
	heap.Pop(&m.pris)
	if m.pairs[k]--; m.pairs[k] == 0 {
		delete(m.pairs, k)
	}
	return true
}

type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func runServingMC(o options, rep *report) error {
	var kvs []*kvStream
	var lru *lruStream
	var pq *pqStream
	var topo *topoStream
	err := simWorkload(o, rep, func(tr *tracer, rs *recorders) (*instance, error) {
		aos, err := newKVStream(o.seed, "serving.kv.aos-malloc", serving.KVConfig{Layout: serving.KVAoS, Placement: serving.KVMalloc}, tr, rs, nil)
		if err != nil {
			return nil, err
		}
		split, err := newKVStream(o.seed, "serving.kv.split-colored", serving.KVConfig{Layout: serving.KVSplit, Placement: serving.KVColored}, tr, rs, nil)
		if err != nil {
			return nil, err
		}
		l, err := newLRUStream(o.seed, tr, rs)
		if err != nil {
			return nil, err
		}
		q, err := newPQStream(o.seed, tr, rs)
		if err != nil {
			return nil, err
		}
		t := newTopoStream(o.seed, tr)
		if tr != nil {
			kvs, lru, pq, topo = []*kvStream{aos, split}, l, q, t
		}
		return &instance{streams: []stream{aos, split, l, q, t}}, nil
	})
	if err != nil || !o.traced {
		return err
	}
	t := rep.tr
	var probes, gets, puts, resizes, twinNs, twinOps int64
	for _, s := range kvs {
		probes += s.probes
		gets += s.gets
		puts += s.puts
		resizes += s.kv.Stats().Resizes
		twinNs += s.twinNs
		twinOps += s.twinOps
	}
	twinNs += lru.twinNs + pq.twinNs
	twinOps += lru.twinOps + pq.twinOps
	rep.set("serving.kv_get_ns", t.meanNs("serving.kv.get"))
	rep.set("serving.kv_put_ns", t.meanNs("serving.kv.put"))
	rep.set("serving.lru_op_ns", t.meanNs("serving.lru.op"))
	rep.set("serving.pq_op_ns", t.meanNs("serving.pq.op"))
	rep.set("serving.uncharged_ns_per_op", ratio(twinNs, twinOps))
	rep.set("serving.kv_probes_per_op", ratio(probes, gets+puts))
	rep.set("serving.kv_resizes", float64(resizes))
	rep.set("serving.lru_hit_ratio", ratio(lru.hits, lru.gets))
	rep.set("topology.host_ns_per_access.4core", ratio(topo.loopNs4, topo.loopAcc))
	rep.set("topology.host_ns_per_access.1core", ratio(topo.loopNs1, topo.loopAcc))
	rep.set("coherence.invalidations_per_kop", 1000*ratio(topo.invalidations(), topo.counterOps+2*topo.loopOps))
	rep.set("coherence.coherence_misses_per_kop", 1000*ratio(topo.cohMisses, topo.counterOps+2*topo.loopOps))
	return nil
}
