package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

const goldenMulticorePath = "testdata/golden_multicore.json"

// multicoreTable runs the experiment once per test process; the
// golden and acceptance tests share the result.
var multicoreTable *Table

func runMulticoreOnce(t *testing.T) Table {
	t.Helper()
	if multicoreTable == nil {
		tab := Multicore(context.Background(), false)
		multicoreTable = &tab
	}
	return *multicoreTable
}

// TestGoldenMulticore locks the quick-mode false-sharing table with a
// checked-in golden: the topology, protocol, and drivers are all
// deterministic, so every cell — cycles per op, coherence misses,
// invalidation counts — must reproduce byte-identically. Regenerate
// deliberate changes with GOLDEN_UPDATE=1.
func TestGoldenMulticore(t *testing.T) {
	tab := runMulticoreOnce(t)
	buf, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(goldenMulticorePath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenMulticorePath)
	}
	golden, err := os.ReadFile(goldenMulticorePath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("multicore table drifted from %s (regenerate with GOLDEN_UPDATE=1 if intended)\ngot:\n%s\nwant:\n%s",
			goldenMulticorePath, buf, golden)
	}
}

// TestMulticoreAcceptance asserts the experiment's headline results
// independent of exact cell values:
//
//   - packed layouts suffer coherence misses, padded layouts none
//     (counters) or strictly fewer (KV, whose shards still collide
//     occasionally at granule boundaries);
//   - padding lowers cycles per operation;
//   - the read-only control has zero coherence misses, zero
//     invalidations and zero forced writebacks.
func TestMulticoreAcceptance(t *testing.T) {
	tab := runMulticoreOnce(t)
	cell := func(prefix string) (cyc float64, coh, inval, fwb int64) {
		t.Helper()
		for _, r := range tab.Rows {
			if strings.HasPrefix(r[0], prefix) {
				cyc, err := strconv.ParseFloat(r[2], 64)
				if err != nil {
					t.Fatal(err)
				}
				var n [3]int64
				for i := range n {
					if n[i], err = strconv.ParseInt(r[3+i], 10, 64); err != nil {
						t.Fatal(err)
					}
				}
				return cyc, n[0], n[1], n[2]
			}
		}
		t.Fatalf("no row with prefix %q in %v", prefix, tab.Rows)
		return 0, 0, 0, 0
	}

	pCyc, pCoh, pInval, _ := cell("per-core counters, packed")
	dCyc, dCoh, dInval, _ := cell("per-core counters, padded")
	if pCoh == 0 {
		t.Error("packed counters: no coherence misses")
	}
	if dCoh != 0 {
		t.Errorf("padded counters: %d coherence misses, want 0", dCoh)
	}
	if dInval != 0 {
		t.Errorf("padded counters: %d invalidations, want 0", dInval)
	}
	if pCyc <= dCyc {
		t.Errorf("counters cycles/op: packed %.1f <= padded %.1f", pCyc, dCyc)
	}
	if pInval == 0 {
		t.Error("packed counters: no invalidations")
	}

	kCyc, kCoh, _, _ := cell("sharded KV, packed")
	qCyc, qCoh, _, _ := cell("sharded KV, padded")
	if kCoh <= qCoh {
		t.Errorf("KV coherence misses: packed %d <= padded %d", kCoh, qCoh)
	}
	if kCyc <= qCyc {
		t.Errorf("KV cycles/op: packed %.2f <= padded %.2f", kCyc, qCyc)
	}

	_, tCoh, tInval, tFwb := cell("shared tree search")
	if tCoh != 0 || tInval != 0 || tFwb != 0 {
		t.Errorf("read-only control: %d coherence misses, %d invalidations, %d forced writebacks, want 0/0/0",
			tCoh, tInval, tFwb)
	}
}
