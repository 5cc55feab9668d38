package main

import (
	"fmt"
	"math/rand"

	"ccl/internal/cache"
	"ccl/internal/ccmalloc"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

// Tree sizing follows Figure 5's quick scale: 64K keys on the §4.1
// machine scaled down 32x, so the tree is many times the L2.
const (
	treeKeys     = 1<<16 - 1
	treeScale    = 32
	treeSearches = 60000 // per tree per round: trees take about two thirds of a round
	treeWarm     = 4000
	// oldenScale is Figure 7's quick-scale cache divisor.
	oldenScale = 8
)

// rngFor derives the generator of one stream's round r (r = -1 is
// the warm-up) from the run seed.
func rngFor(seed int64, salt string, r int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range salt {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h ^ int64(r+1)*7919))
}

// treeStream searches one tree with seeded uniform keys, a ninth of
// them absent (above the largest key).
type treeStream struct {
	span     string
	searches int    // per round
	salt     string // names the key stream; equal salts draw equal keys
	seed     int64
	m        *machine.Machine
	search   func(uint32) bool
	keys     []uint32
	found    []bool
}

func (s *treeStream) name() string { return s.span }

func (s *treeStream) draw(r, n int) []uint32 {
	rng := rngFor(s.seed, s.salt, r)
	keys := s.keys[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, uint32(rng.Int63n(treeKeys+treeKeys/8))+1)
	}
	return keys
}

func (s *treeStream) prep(r int) { s.keys = s.draw(r, s.searches) }

func (s *treeStream) run(tr *tracer, lat []int64) []int64 {
	s.found = s.found[:0]
	if tr == nil {
		for _, k := range s.keys {
			t0 := nowNs()
			f := s.search(k)
			lat = append(lat, nowNs()-t0)
			s.found = append(s.found, f)
		}
		return lat
	}
	id := tr.name(s.span)
	for i, k := range s.keys {
		t0 := tr.now()
		f := s.search(k)
		t1 := tr.now()
		tr.leaf(id, t0, t1, int64(i))
		lat = append(lat, t1-t0)
		s.found = append(s.found, f)
	}
	return lat
}

func (s *treeStream) check(rep *report) {
	var bad int64
	for i, k := range s.keys {
		if s.found[i] != (k <= treeKeys) {
			if bad == 0 {
				checkf(rep, "%s: search(%d) = %v", s.span, k, s.found[i])
			}
			bad++
		}
	}
	rep.ops(int64(len(s.keys)), bad)
}

func (s *treeStream) sim() simStats { return fromCache(s.m.Stats()) }

// buildTree builds one tree on its own machine: the random-order BST
// ("random"), the C-tree (the same BST after Morph(0.5), "ctree") or
// the colored B-tree ("btree"). observe, if not nil, attaches an
// observer to the machine's hierarchy. The caches are then flushed,
// recording starts if traced, the warm-up searches run, and the
// counters are reset. Each round searches the given number of keys.
func buildTree(seed int64, kind, span string, searches int, tr *tracer, rs *recorders, observe func(*cache.Hierarchy)) (*treeStream, error) {
	m := sim.New().NewScaled(treeScale)
	st := &treeStream{span: span, searches: searches, salt: kind, seed: seed, m: m}
	switch kind {
	case "random", "ctree":
		tr.begin("trees.build."+kind, 0)
		t, err := trees.Build(m, heap.New(m.Arena), treeKeys, trees.RandomOrder, seed)
		tr.end()
		if err != nil {
			return nil, err
		}
		if kind == "ctree" {
			tr.begin("ccmorph.reorganize", 0)
			_, err := t.Morph(0.5, nil)
			tr.end()
			if err != nil {
				return nil, err
			}
		}
		st.search = t.Search
	case "btree":
		tr.begin("trees.build."+kind, 0)
		t, err := trees.NewBTree(m, 0.5)
		if err == nil {
			err = t.BulkLoad(treeKeys, 0.67)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		st.search = t.Search
	}
	if observe != nil {
		observe(m.Cache)
	}
	m.Cache.Flush()
	rs.attach(m, span)
	for _, k := range st.draw(-1, treeWarm) {
		st.search(k)
	}
	resetStats(m)
	return st, nil
}

// oldenBenchmarks are the four Olden kernels; each op of oldenStream
// is one invocation: build the structure and run the kernel. They run
// at their quick-scale default configurations, whatever the seed: a
// seeded health or mst changes the work per invocation by several
// percent, which would swamp the run-to-run comparison.
var oldenBenchmarks = []string{"treeadd", "health", "mst", "perimeter"}

// oldenVariants are the allocators compared: the baseline malloc and
// ccmalloc new-block.
var oldenVariants = []olden.Variant{olden.Base, olden.CCMallocNewBlock}

type oldenStream struct {
	rep     *report
	tr      *tracer
	rs      *recorders
	round   int
	results []olden.Result
	total   simStats
	// ccmalloc counters of the ccmalloc invocations, for the
	// degraded ratio.
	hinted, degraded int64
}

func (s *oldenStream) name() string { return "olden" }

func (s *oldenStream) prep(r int) { s.round = r }

func (s *oldenStream) invoke(bench string, v olden.Variant) olden.Result {
	env := olden.NewEnvIn(sim.New(), v, oldenScale)
	if s.round == 0 {
		s.rs.attach(env.M, fmt.Sprintf("olden.%s.%s", bench, v.Name()))
	}
	cc, isCC := env.Alloc.(*ccmalloc.Allocator)
	if isCC && s.tr != nil {
		env.Alloc = &timedAlloc{Allocator: env.Alloc, tr: s.tr, span: s.tr.name("ccmalloc.alloc")}
	}
	var res olden.Result
	switch bench {
	case "treeadd":
		res = treeadd.Run(env, treeadd.DefaultConfig())
	case "health":
		res = health.Run(env, health.DefaultConfig())
	case "mst":
		res = mst.Run(env, mst.DefaultConfig())
	case "perimeter":
		res = perimeter.Run(env, perimeter.DefaultConfig())
	}
	if isCC && s.tr != nil {
		st := cc.Stats()
		s.hinted += st.HintedAllocs
		s.degraded += st.Degraded
	}
	s.tr.count("olden."+bench, "sim_cycles", res.Cycles())
	return res
}

func (s *oldenStream) run(tr *tracer, lat []int64) []int64 {
	s.results = s.results[:0]
	for _, b := range oldenBenchmarks {
		for _, v := range oldenVariants {
			tr.begin("olden."+b, int64(v))
			t0 := nowNs()
			res := s.invoke(b, v)
			lat = append(lat, nowNs()-t0)
			tr.end()
			if s.round == 0 {
				s.rs.verify(s.rep, fmt.Sprintf("olden.%s.%s", b, v.Name()))
			}
			s.results = append(s.results, res)
			s.total = s.total.add(fromCache(res.Stats))
		}
	}
	return lat
}

// check requires every kernel's checksum to agree across allocators:
// placement must not change what a program computes.
func (s *oldenStream) check(rep *report) {
	var bad int64
	for i := 0; i < len(s.results); i += len(oldenVariants) {
		base := s.results[i]
		for _, r := range s.results[i+1 : i+len(oldenVariants)] {
			if r.Check != base.Check {
				checkf(rep, "olden %s: checksum %d under %s, %d under %s",
					base.Benchmark, base.Check, base.Variant.Name(), r.Check, r.Variant.Name())
				bad++
			}
		}
	}
	rep.ops(int64(len(s.results)), bad)
}

func (s *oldenStream) sim() simStats { return s.total }

// timedAlloc wraps an Olden environment's allocator and records a span
// per allocation.
type timedAlloc struct {
	heap.Allocator
	tr   *tracer
	span int
}

func (a *timedAlloc) Alloc(size int64) (memsys.Addr, error) {
	t0 := a.tr.now()
	p, err := a.Allocator.Alloc(size)
	a.tr.leaf(a.span, t0, a.tr.now(), size)
	return p, err
}

func (a *timedAlloc) AllocHint(size int64, hint memsys.Addr) (memsys.Addr, error) {
	t0 := a.tr.now()
	p, err := a.Allocator.AllocHint(size, hint)
	a.tr.leaf(a.span, t0, a.tr.now(), size)
	return p, err
}

func runPaperBare(o options, rep *report) error {
	var olds *oldenStream
	err := simWorkload(o, rep, func(tr *tracer, rs *recorders) (*instance, error) {
		var streams []stream
		for _, kind := range []string{"random", "ctree", "btree"} {
			st, err := buildTree(o.seed, kind, "trees.search."+kind, treeSearches, tr, rs, nil)
			if err != nil {
				return nil, err
			}
			streams = append(streams, st)
		}
		ol := &oldenStream{rep: rep, tr: tr, rs: rs}
		if tr != nil {
			olds = ol
		}
		return &instance{streams: append(streams, ol)}, nil
	})
	if err != nil || !o.traced {
		return err
	}
	t := rep.tr
	rep.set("trees.search_ns.random", t.meanNs("trees.search.random"))
	rep.set("trees.search_ns.ctree", t.meanNs("trees.search.ctree"))
	rep.set("trees.search_ns.btree", t.meanNs("trees.search.btree"))
	rep.set("trees.build_s", (t.meanNs("trees.build.random")+t.meanNs("trees.build.ctree")+t.meanNs("trees.build.btree"))/1e9)
	rep.set("ccmorph.reorganize_s", t.meanNs("ccmorph.reorganize")/1e9)
	rep.set("ccmalloc.alloc_ns", t.meanNs("ccmalloc.alloc"))
	rep.set("ccmalloc.degraded_ratio", ratio(olds.degraded, olds.hinted))
	for _, b := range oldenBenchmarks {
		tot := t.totals[t.name("olden."+b)]
		rep.set("olden."+b+".run_s", t.meanNs("olden."+b)/1e9)
		rep.set("olden."+b+".sim_cycles", float64(tot.Counts["sim_cycles"])/float64(tot.Count))
	}
	return nil
}
