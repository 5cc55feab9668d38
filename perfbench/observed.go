package main

import (
	"ccl/internal/apps/serving"
	"ccl/internal/cache"
	"ccl/internal/profile"
	"ccl/internal/telemetry"
)

// observers are the two ways a hierarchy is watched: the telemetry
// collector alone, and the profiler (which wraps a collector).
var observers = []struct {
	name   string
	attach func(*cache.Hierarchy)
}{
	{"collector", func(h *cache.Hierarchy) { telemetry.Attach(h) }},
	{"profiler", func(h *cache.Hierarchy) { profile.Attach(h, profile.Config{SampleEvery: profileSampleEvery}) }},
}

// observedSearches is the C-tree searches per observer per round; an
// observed search costs about three bare ones, so this keeps the tree
// and KV streams of a round about even.
const observedSearches = 20000

// runObserved reruns paper-bare's C-tree searches and serving-mc's KV
// streams with an observer attached to each machine.
func runObserved(o options, rep *report) error {
	return simWorkload(o, rep, func(tr *tracer, rs *recorders) (*instance, error) {
		var streams []stream
		for _, obs := range observers {
			st, err := buildTree(o.seed, "ctree", "observed.ctree."+obs.name, observedSearches, tr, rs, obs.attach)
			if err != nil {
				return nil, err
			}
			streams = append(streams, st)
			for _, cfg := range []serving.KVConfig{
				{Layout: serving.KVAoS, Placement: serving.KVMalloc},
				{Layout: serving.KVSplit, Placement: serving.KVColored},
			} {
				span := "observed.kv." + cfg.Layout.String() + "-" + cfg.Placement.String() + "." + obs.name
				kv, err := newKVStream(o.seed, span, cfg, tr, rs, obs.attach)
				if err != nil {
					return nil, err
				}
				streams = append(streams, kv)
			}
		}
		return &instance{streams: streams}, nil
	})
}
