package main

import (
	"time"

	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/profile"
	"ccl/internal/telemetry"
	"ccl/internal/trace"
)

const (
	// maxRecords bounds one recorder's stream (32 B a record).
	maxRecords = 1 << 22
	// observerPrefix bounds the measured records replayed with an
	// observer attached; observers cost ~15x the bare access.
	observerPrefix = 100000
	// replayReps is how many times each replay is timed; the median
	// counts.
	replayReps = 3
	// profileSampleEvery is the profiler's sample period.
	profileSampleEvery = 31
)

// recorder is a cache.Observer that records every demand access of
// one hierarchy as a trace record and forwards it to the observer it
// displaced. Attached right after the hierarchy is flushed, it sees
// the warm-up and round 0; mark splits the two where the workload
// reset the stats.
type recorder struct {
	owner string
	h     *cache.Hierarchy
	next  cache.Observer
	recs  []trace.Record
	mark  int
	full  bool
}

func (r *recorder) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	if len(r.recs) < maxRecords {
		k := trace.Load
		if kind == cache.Store {
			k = trace.Store
		}
		r.recs = append(r.recs, trace.Record{Kind: k, Addr: addr, Size: 1})
	} else {
		r.full = true
	}
	if r.next != nil {
		r.next.OnAccess(addr, kind, hitLevel)
	}
}

func (r *recorder) OnEvict(level int, addr memsys.Addr, dirty bool) {
	if r.next != nil {
		r.next.OnEvict(level, addr, dirty)
	}
}

func (r *recorder) OnFill(level int, addr memsys.Addr, prefetch bool) {
	if r.next != nil {
		r.next.OnFill(level, addr, prefetch)
	}
}

// resetStats resets m's counters and marks the end of the warm-up in
// its recorder, if it has one.
func resetStats(m *machine.Machine) {
	m.ResetStats()
	if r, ok := m.Cache.Observer().(*recorder); ok {
		r.mark = len(r.recs)
	}
}

// recorders owns the traced instance's recorders and what their
// replays measured.
type recorders struct {
	live []*recorder

	verified              int
	bareNs, bareAcc       float64
	telNs, profNs, obsAcc float64
}

// attach starts recording m's accesses for the stream named owner.
// With rs nil it does nothing, so untraced builds call it freely.
func (rs *recorders) attach(m *machine.Machine, owner string) {
	if rs == nil {
		return
	}
	r := &recorder{owner: owner, h: m.Cache, next: m.Cache.Observer()}
	m.Cache.SetObserver(r)
	rs.live = append(rs.live, r)
}

// verify detaches owner's recorders and checks each recording: a
// fresh hierarchy of the same configuration, fed the warm-up, reset,
// then fed round 0 through trace.AccessTrace, must end with exactly
// the live hierarchy's counters. Busy cycles are excluded: they come
// from Tick, which a trace does not carry. The same replays, timed,
// give the bare and observed host cost per access.
func (rs *recorders) verify(rep *report, owner string) {
	if rs == nil {
		return
	}
	kept := rs.live[:0]
	for _, r := range rs.live {
		if r.owner != owner {
			kept = append(kept, r)
			continue
		}
		r.h.SetObserver(r.next)
		rs.check(rep, r)
	}
	rs.live = kept
}

func (rs *recorders) check(rep *report, r *recorder) {
	if r.full {
		rep.fault(false, "%s: recording exceeded %d records", r.owner, maxRecords)
		return
	}
	warm, meas := r.recs[:r.mark], r.recs[r.mark:]
	live := r.h.Stats()
	var bare []float64
	var replayed cache.Stats
	for i := 0; i < replayReps; i++ {
		h := cache.New(r.h.Config())
		ns := replay(h, warm, meas)
		bare = append(bare, ns)
		replayed = h.Stats()
	}
	if !sameAccessStats(live, replayed) {
		rep.fault(false, "%s: replay of %d recorded accesses does not reproduce the live counters:\nlive   %+v\nreplay %+v",
			r.owner, len(meas), live, replayed)
	}
	rs.verified++
	rs.bareNs += median(bare)
	rs.bareAcc += float64(len(meas))

	pre := meas[:min(len(meas), observerPrefix)]
	var b, tel, prof []float64
	for i := 0; i < replayReps; i++ {
		b = append(b, replay(cache.New(r.h.Config()), warm, pre))
		h := cache.New(r.h.Config())
		telemetry.Attach(h)
		tel = append(tel, replay(h, warm, pre))
		h = cache.New(r.h.Config())
		profile.Attach(h, profile.Config{SampleEvery: profileSampleEvery})
		prof = append(prof, replay(h, warm, pre))
	}
	rs.telNs += median(tel) - median(b)
	rs.profNs += median(prof) - median(b)
	rs.obsAcc += float64(len(pre))
}

// replay feeds warm, resets the counters, and returns the host ns of
// feeding meas.
func replay(h *cache.Hierarchy, warm, meas []trace.Record) float64 {
	trace.AccessTrace(h, warm)
	h.ResetStats()
	t0 := time.Now()
	trace.AccessTrace(h, meas)
	return float64(time.Since(t0))
}

func sameAccessStats(a, b cache.Stats) bool {
	if len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return a.TLBAccesses == b.TLBAccesses && a.TLBMisses == b.TLBMisses &&
		a.L1HitCycles == b.L1HitCycles && a.LoadStallCycles == b.LoadStallCycles &&
		a.StoreStall == b.StoreStall && a.PrefetchIssue == b.PrefetchIssue &&
		a.MemAccesses == b.MemAccesses
}

// report sets the replay metrics. It fails the run if a stream that
// should have been recorded was not verified.
func (rs *recorders) report(rep *report) {
	if len(rs.live) > 0 {
		rep.fault(false, "%d recordings were never verified", len(rs.live))
	}
	if rs.verified == 0 {
		rep.fault(false, "no access stream was recorded")
		return
	}
	rep.set("cache.host_ns_per_access", rs.bareNs/rs.bareAcc)
	rep.set("telemetry.host_ns_per_access", rs.telNs/rs.obsAcc)
	rep.set("profile.host_ns_per_access", rs.profNs/rs.obsAcc)
	rep.set("replay.verified_streams", float64(rs.verified))
}
