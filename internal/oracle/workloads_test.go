package oracle_test

import (
	"reflect"
	"testing"

	"ccl/internal/apps/radiance"
	"ccl/internal/apps/vis"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
	"ccl/internal/olden/health"
	"ccl/internal/olden/mst"
	"ccl/internal/olden/perimeter"
	"ccl/internal/olden/treeadd"
	"ccl/internal/oracle"
	"ccl/internal/sim"
	"ccl/internal/trace"
	"ccl/internal/trees"
)

// The all-workload differential: every paper workload runs live with a
// trace.Recorder on its machine's hierarchy, and the recorded demand
// stream must (1) agree with the naive oracle event by event and (2)
// replay through a fresh production hierarchy to the live run's exact
// counters. (2) is what makes (1) a statement about the workload
// rather than about the recorder: the recorded stream is the stream
// the run's reported numbers came from. Busy cycles are compute
// charges (Tick), not cache events, so the replay cannot carry them.
//
// Only prefetch-free variants run: prefetches are timing overlays
// outside the oracle's scope and leave no demand record (see
// trace.Recorder). Sizes are shrunk so the whole table stays well
// under a few seconds.

// workload is one recorded run: setup builds the machine, and the
// returned closure runs the workload on it once a recorder is
// attached.
type workload struct {
	name  string
	setup func(t *testing.T) (*machine.Machine, func())
}

// oldenRun wraps one Olden kernel under variant v at a small scale.
func oldenRun(v olden.Variant, kernel func(olden.Env)) func(*testing.T) (*machine.Machine, func()) {
	return func(*testing.T) (*machine.Machine, func()) {
		env := olden.NewEnvIn(sim.New(), v, 16)
		return env.M, func() { kernel(env) }
	}
}

func workloads() []workload {
	ws := []workload{
		{"bst-ctree", func(t *testing.T) (*machine.Machine, func()) {
			m := machine.NewScaled(64)
			return m, func() {
				alloc := heap.New(m.Arena)
				bst, err := trees.Build(m, alloc, 4095, trees.RandomOrder, 5)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := bst.Morph(0.5, func(a memsys.Addr) { alloc.Free(a) }); err != nil {
					t.Fatal(err)
				}
				for k := uint32(1); k <= 10000; k++ {
					bst.Search(k*7%4200 + 1)
				}
			}
		}},
		{"btree", func(t *testing.T) (*machine.Machine, func()) {
			m := machine.NewScaled(64)
			return m, func() {
				bt, err := trees.NewBTree(m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := bt.BulkLoad(4000, 0.7); err != nil {
					t.Fatal(err)
				}
				for k := uint32(1); k <= 200; k++ {
					if err := bt.Insert(4000 + k*3); err != nil {
						t.Fatal(err)
					}
				}
				for k := uint32(1); k <= 10000; k++ {
					bt.Search(k*11%4700 + 1)
				}
			}
		}},
	}
	for _, v := range []olden.Variant{olden.Base, olden.CCMallocNewBlock} {
		ws = append(ws,
			workload{"treeadd/" + v.String(), oldenRun(v, func(e olden.Env) {
				treeadd.Run(e, treeadd.Config{Depth: 12, Repeats: 2})
			})},
			workload{"health/" + v.String(), oldenRun(v, func(e olden.Env) {
				health.Run(e, health.Config{Levels: 3, Steps: 40, MorphInterval: 10, Seed: 1})
			})},
			workload{"mst/" + v.String(), oldenRun(v, func(e olden.Env) {
				mst.Run(e, mst.Config{NumVert: 96, EdgesPer: 8, Buckets: 4, Seed: 3})
			})},
			workload{"perimeter/" + v.String(), oldenRun(v, func(e olden.Env) {
				perimeter.Run(e, perimeter.Config{ImageSize: 128, Circles: 6, Repeats: 2, Seed: 5})
			})},
		)
	}
	radCfg := radiance.Config{Spheres: 120, MaxDepth: 5, LeafItems: 2, Width: 24, Height: 16, Frames: 1, Bounces: 1, Seed: 4}
	for _, mode := range []radiance.Mode{radiance.Base, radiance.Cluster} {
		ws = append(ws, workload{"radiance/" + mode.String(), func(*testing.T) (*machine.Machine, func()) {
			m := machine.NewScaled(16)
			return m, func() { radiance.Run(m, mode, radCfg) }
		}})
	}
	for _, mode := range []vis.Mode{vis.Base, vis.CCMalloc} {
		ws = append(ws, workload{"vis/" + mode.String(), func(*testing.T) (*machine.Machine, func()) {
			m := machine.NewScaled(16)
			return m, func() { vis.Run(m, mode, vis.Config{Bits: 5, Evals: 300, Seed: 3}) }
		}})
	}
	return ws
}

// TestWorkloadsOracleDifferential records every workload and checks
// the stream against the oracle and against the live counters.
func TestWorkloadsOracleDifferential(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			m, run := w.setup(t)
			rec := trace.Attach(m.Cache)
			run()
			tr := rec.Trace()
			if len(tr.Records) == 0 {
				t.Fatal("workload recorded no accesses")
			}
			if d := oracle.Diff(tr); d != nil {
				t.Fatalf("%d records: %v", len(tr.Records), d)
			}
			h, _, err := trace.Replay(tr)
			if err != nil {
				t.Fatal(err)
			}
			live, replayed := m.Stats(), h.Stats()
			live.BusyCycles = 0
			if !reflect.DeepEqual(replayed, live) {
				t.Fatalf("replay of %d records does not reproduce the live counters:\nreplay %+v\nlive   %+v",
					len(tr.Records), replayed, live)
			}
		})
	}
}
