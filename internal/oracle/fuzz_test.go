package oracle

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// FuzzDifferential feeds arbitrary bytes through the fuzz-input
// mapping (trace.FromBytes) and replays the derived trace through
// both simulators. Any divergence is a real bug in one of them; the
// failing input is a complete reproduction (geometry + stream).
//
// The historical blocks_covering_min fixture came out of exactly this
// loop: a geometry whose L2 blocks were smaller than L1's plus one
// access spanning two of the small blocks.
// FuzzCoherenceDifferential does the same for the multicore machine:
// the input seeds a random topology and then drives the interleaving
// directly (each byte is one access; its high bits pick the core), so
// the fuzzer explores protocol schedules — invalidation storms,
// ping-pong, stale-directory no-ops — not just geometries. A
// divergence means machine.Topology and the reference coherence model
// disagree on some granule's state grant, latency, or miss flags.
func FuzzCoherenceDifferential(f *testing.F) {
	// A geometry header alone, a single-core run, a two-core
	// ping-pong schedule (alternating high bits), and a dense
	// mixed-core schedule.
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{2, 0, 0, 0, 0x01, 0x21, 0x01, 0x21, 0x01, 0x21, 0x01, 0x21})
	f.Add([]byte{3, 1, 4, 1, 0x10, 0x9f, 0x33, 0xe1, 0x55, 0x7a, 0x02, 0xbd, 0x44, 0xc8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := diffTopologyBytes(data); d != nil {
			t.Fatal(d)
		}
	})
}

func FuzzDifferential(f *testing.F) {
	// A geometry header alone (no records) and a couple of dense
	// streams, including one that historically diverged: level byte
	// 0x01 gives L1 16-byte blocks, 0x00 gives L2 8-byte blocks, and
	// the record {addr=8, size=16} spans two 8-byte blocks.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 8, 15})
	f.Add([]byte{2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := diffBytes(data); d != nil {
			t.Fatal(d)
		}
	})
}

// diffBytes derives a trace from raw fuzz input and diffs it. It
// reports nil for inputs too short to name a geometry.
func diffBytes(data []byte) *Divergence {
	tr, ok := trace.FromBytes(data)
	if !ok {
		return nil
	}
	return Diff(tr)
}

// diffTopologyBytes derives a topology and an interleaved stream from
// raw fuzz input and diffs the two machines. The first four bytes seed
// the geometry; every following byte is one access whose high bits
// pick the core — the fuzzer explores interleavings directly. Inputs
// too short to name a geometry report nil.
func diffTopologyBytes(data []byte) *Divergence {
	if len(data) < 5 {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint32(data))))
	cfg := RandomTopology(rng)
	sched := data[4:]
	recs := make([]trace.Record, 0, len(sched))
	for i, b := range sched {
		r := trace.Record{
			Kind: trace.Load,
			Core: int(b>>5) % cfg.Cores,
			Addr: memsys.Addr((int64(b&0x1f)*67 + int64(i)*13) % (2 << 10)),
			Size: 1 + int64(b%16),
		}
		if b&1 == 1 {
			r.Kind = trace.Store
		}
		recs = append(recs, r)
	}
	return DiffTopology(cfg, recs)
}
