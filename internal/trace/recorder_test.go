package trace

import (
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// recorderGeometry puts a level with blocks smaller than L1's below
// it, so the hierarchy's minimum block size (32 B), not L1's (64 B),
// is the unit a spanning access splits at.
func recorderGeometry() cache.Config {
	return cache.Config{
		Levels: []cache.LevelConfig{
			{Name: "L1", Size: 1 << 10, Assoc: 2, BlockSize: 64, Latency: 1},
			{Name: "L2", Size: 8 << 10, Assoc: 4, BlockSize: 32, Latency: 6, WriteBack: true},
		},
		MemLatency: 40,
	}
}

func TestRecorder(t *testing.T) {
	cfg := recorderGeometry()
	for _, tc := range []struct {
		name string
		run  func(h *cache.Hierarchy)
		want []Record
	}{
		{
			name: "spanning access yields one record per minimum block",
			run:  func(h *cache.Hierarchy) { h.Access(0x1010, 64, cache.Load) },
			want: []Record{
				{Kind: Load, Addr: 0x1010, Size: 1},
				{Kind: Load, Addr: 0x1020, Size: 1},
				{Kind: Load, Addr: 0x1040, Size: 1},
			},
		},
		{
			name: "stores and evictions reach the displaced observer",
			run: func(h *cache.Hierarchy) {
				// Five blocks in one 2-way L1 set force evictions.
				for i := int64(0); i < 5; i++ {
					h.Access(memsys.Addr(0x2004+i<<9), 4, cache.Store)
				}
			},
			want: []Record{
				{Kind: Store, Addr: 0x2004, Size: 1},
				{Kind: Store, Addr: 0x2204, Size: 1},
				{Kind: Store, Addr: 0x2404, Size: 1},
				{Kind: Store, Addr: 0x2604, Size: 1},
				{Kind: Store, Addr: 0x2804, Size: 1},
			},
		},
		{
			name: "prefetches and compute leave no record",
			run: func(h *cache.Hierarchy) {
				h.Prefetch(0x3000)
				h.PrefetchFree(0x4000)
				h.Access(0x5000, 8, cache.PrefetchRead)
				h.Tick(100)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The same calls run on a twin without a recorder: the
			// displaced observer must see exactly the twin's events.
			h, twin := cache.New(cfg), cache.New(cfg)
			displaced, want := &eventLog{}, &eventLog{}
			h.SetObserver(displaced)
			twin.SetObserver(want)
			rec := Attach(h)
			if h.Observer() != rec {
				t.Fatal("Attach did not install the recorder")
			}
			tc.run(h)
			tc.run(twin)

			tr := rec.Trace()
			if !reflect.DeepEqual(tr.Config, h.Config()) {
				t.Errorf("Trace().Config = %+v, want the hierarchy's %+v", tr.Config, h.Config())
			}
			if len(tr.Records) != len(tc.want) || (len(tc.want) > 0 && !reflect.DeepEqual(tr.Records, tc.want)) {
				t.Errorf("records = %v, want %v", tr.Records, tc.want)
			}
			if len(want.lines) == 0 {
				t.Fatal("twin saw no observer events")
			}
			if !reflect.DeepEqual(displaced.lines, want.lines) {
				t.Errorf("displaced observer saw\n%v\nwant\n%v", displaced.lines, want.lines)
			}
		})
	}
}
