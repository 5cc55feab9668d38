package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ccl/internal/cache"
)

// epoch anchors nowNs.
var epoch = time.Now()

// nowNs is the untraced runs' op clock: monotonic host ns.
func nowNs() int64 { return int64(time.Since(epoch)) }

// setupRuns is how many times a simulator workload is built: setup_s
// is the median, and the last build is the one measured.
const setupRuns = 5

// minRounds is the fewest rounds a timed phase runs, however short
// --seconds is.
const minRounds = 3

// simStats are simulated counters, cumulative per stream. Cycles and
// Accesses cover every machine a stream drives; the rest cover its
// single-core hierarchies only.
type simStats struct {
	Cycles, Accesses      int64
	L1Acc, L1Miss         int64
	LLAcc, LLMiss         int64
	TLBAcc, TLBMiss       int64
	LoadStall, StoreStall int64
	CacheCycles           int64
}

// fromCache converts one single-core hierarchy's counters.
func fromCache(s cache.Stats) simStats {
	l1, ll := s.Levels[0], s.Levels[len(s.Levels)-1]
	return simStats{
		Cycles: s.TotalCycles(), Accesses: l1.Accesses,
		L1Acc: l1.Accesses, L1Miss: l1.Misses,
		LLAcc: ll.Accesses, LLMiss: ll.Misses,
		TLBAcc: s.TLBAccesses, TLBMiss: s.TLBMisses,
		LoadStall: s.LoadStallCycles, StoreStall: s.StoreStall,
		CacheCycles: s.TotalCycles(),
	}
}

func (a simStats) add(b simStats) simStats {
	return simStats{
		a.Cycles + b.Cycles, a.Accesses + b.Accesses,
		a.L1Acc + b.L1Acc, a.L1Miss + b.L1Miss,
		a.LLAcc + b.LLAcc, a.LLMiss + b.LLMiss,
		a.TLBAcc + b.TLBAcc, a.TLBMiss + b.TLBMiss,
		a.LoadStall + b.LoadStall, a.StoreStall + b.StoreStall,
		a.CacheCycles + b.CacheCycles,
	}
}

func (a simStats) sub(b simStats) simStats {
	return simStats{
		a.Cycles - b.Cycles, a.Accesses - b.Accesses,
		a.L1Acc - b.L1Acc, a.L1Miss - b.L1Miss,
		a.LLAcc - b.LLAcc, a.LLMiss - b.LLMiss,
		a.TLBAcc - b.TLBAcc, a.TLBMiss - b.TLBMiss,
		a.LoadStall - b.LoadStall, a.StoreStall - b.StoreStall,
		a.CacheCycles - b.CacheCycles,
	}
}

// stream is one seeded op sequence on one set of simulated
// structures, run in fixed-size rounds. Round r's inputs are a pure
// function of the seed and r, so every run of a seed executes the same
// ops in the same order.
type stream interface {
	// name is the span name of one op.
	name() string
	// prep generates round r's inputs before the clock starts.
	prep(r int)
	// run does the round's ops, appending each op's host ns to lat.
	// It is the only timed part of a round.
	run(tr *tracer, lat []int64) []int64
	// check verifies the round's outputs after the clock stops and
	// records attempted and failed ops in rep.
	check(rep *report)
	// sim returns the cumulative simulated counters.
	sim() simStats
}

// instance is one built copy of a workload's streams.
type instance struct {
	streams []stream
	tr      *tracer    // nil: untraced
	rs      *recorders // nil: no access recording
}

// phase is what a timed phase measured on one instance.
type phase struct {
	rounds   int
	ops      int64
	ns       int64
	rate     []float64 // ops per host second, per round
	roundNs  []float64 // host ns, per round
	p50, p99 []float64 // per-op host ms, per round
	round0   simStats  // simulated counters of round 0
	ops0     int64
	all      simStats
}

// measure runs rounds on every instance in turn until seconds have
// passed. Only stream.run is timed; round 0 of a recording instance is
// followed by the replay cross-check of what it recorded.
func measure(rep *report, insts []*instance, seconds float64) []phase {
	res := make([]phase, len(insts))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var lat, roundLat []int64
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		for ii, in := range insts {
			p := &res[ii]
			var roundNs, roundOps int64
			roundLat = roundLat[:0]
			for _, s := range in.streams {
				before := s.sim()
				s.prep(r)
				in.tr.begin("round."+s.name(), int64(r))
				t0 := time.Now()
				lat = s.run(in.tr, lat[:0])
				dt := time.Since(t0)
				in.tr.end()
				s.check(rep)
				d := s.sim().sub(before)
				if r == 0 {
					p.round0 = p.round0.add(d)
					p.ops0 += int64(len(lat))
					in.rs.verify(rep, s.name())
				}
				p.all = p.all.add(d)
				roundNs += int64(dt)
				roundOps += int64(len(lat))
				roundLat = append(roundLat, lat...)
			}
			p.rounds++
			p.ops += roundOps
			p.ns += roundNs
			p.rate = append(p.rate, float64(roundOps)/(float64(roundNs)/1e9))
			p.roundNs = append(p.roundNs, float64(roundNs))
			sort.Slice(roundLat, func(i, j int) bool { return roundLat[i] < roundLat[j] })
			p.p50 = append(p.p50, float64(quantile(roundLat, 0.50))/1e6)
			p.p99 = append(p.p99, float64(quantile(roundLat, 0.99))/1e6)
		}
	}
	return res
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// midmean is the mean of the middle half of v: as robust to outliers
// as the median, but not stuck on one sample's value.
func midmean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// buildTimed runs build n times after a forced GC each, and returns
// the last result with the median build time in seconds.
func buildTimed[T any](n int, build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// memSnap is the Go runtime's allocation state at one point.
type memSnap struct{ totalAlloc, numGC uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC)}
}

// liveHeapMiB forces a GC and returns the heap in use, in MiB. The
// caller keeps its structures reachable across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// simWorkload runs a simulator workload: build it (timed, setupRuns
// times), run its timed phase, and report. Untraced, it reports the
// end-to-end metrics of the one instance. Traced, it builds a second,
// traced and recording instance, alternates rounds between the two,
// checks that their simulated counters agree, and reports per-layer
// metrics from the traced spans, the replays and the counters.
func simWorkload(o options, rep *report, build func(tr *tracer, rs *recorders) (*instance, error)) error {
	plain, setup, err := buildTimed(setupRuns, func() (*instance, error) { return build(nil, nil) })
	if err != nil {
		return err
	}
	insts := []*instance{plain}
	if o.traced {
		rs := &recorders{}
		traced, err := build(rep.tr, rs)
		if err != nil {
			return err
		}
		traced.tr, traced.rs = rep.tr, rs
		insts = append(insts, traced)
	}
	m0 := readMem()
	ph := measure(rep, insts, o.seconds)
	m1 := readMem()
	heap := liveHeapMiB()
	runtime.KeepAlive(insts)

	a := ph[0]
	rep.detail["rounds"] = a.rounds
	rep.detail["ops"] = a.ops
	rep.detail["ops_round0"] = a.ops0
	if !o.traced {
		rep.set("setup_s", setup)
		rep.set("ops_per_s", median(a.rate))
		rep.set("sim_cycles_per_op", float64(a.round0.Cycles)/float64(a.ops0))
		rep.set("live_heap_mb", heap)
		rep.set("req_p50_ms", midmean(a.p50))
		rep.set("req_p99_ms", midmean(a.p99))
		return nil
	}
	b := ph[1]
	if a.round0 != b.round0 {
		rep.fault(false, "simulated counters differ between the untraced and traced run: %+v vs %+v", a.round0, b.round0)
	}
	r0 := a.round0
	rep.set("sim.accesses_per_s", float64(a.all.Accesses)/(float64(a.ns)/1e9))
	rep.set("cache.accesses_per_op", float64(r0.Accesses)/float64(a.ops0))
	rep.set("cache.l1_miss_rate", ratio(r0.L1Miss, r0.L1Acc))
	rep.set("cache.ll_miss_rate", ratio(r0.LLMiss, r0.LLAcc))
	rep.set("cache.tlb_miss_rate", ratio(r0.TLBMiss, r0.TLBAcc))
	rep.set("cache.load_stall_share", ratio(r0.LoadStall, r0.CacheCycles))
	rep.set("cache.store_stall_share", ratio(r0.StoreStall, r0.CacheCycles))
	rep.set("trace.overhead_ratio", median(b.roundNs)/median(a.roundNs)-1)
	rep.set("runtime.alloc_bytes_per_op", float64(m1.totalAlloc-m0.totalAlloc)/float64(a.ops+b.ops))
	rep.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC))
	insts[1].rs.report(rep)
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkf counts one failed op check.
func checkf(rep *report, format string, args ...any) {
	rep.fault(true, "%s", fmt.Sprintf(format, args...))
}
