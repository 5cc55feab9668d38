package flat

import (
	"math"
	"testing"
)

// TestBitsetMatchesMap checks the paged bitset against a map over keys
// on both sides of page boundaries, negative keys and the int64
// extremes included, through Set, TestAndSet and Clear.
func TestBitsetMatchesMap(t *testing.T) {
	const page = int64(PageLen) * int64(len(bitChunk{})) * 64 // keys per Bits page
	var keys []int64
	for _, pn := range []int64{-3, -2, -1, 0, 1, 2, 1 << 20, math.MinInt64 / page, math.MaxInt64 / page} {
		for _, off := range []int64{0, 1, 63, 64, 65, 2047, 2048, page/2 + 7, page - 64, page - 1} {
			keys = append(keys, pn*page+off)
		}
	}
	var b Bits
	want := map[int64]bool{}
	check := func(step string) {
		t.Helper()
		for _, k := range keys {
			if got := b.Test(k); got != want[k] {
				t.Fatalf("%s: Test(%d) = %v, want %v", step, k, got, want[k])
			}
		}
	}
	check("empty")
	b.Clear(keys[0]) // clearing a key of an absent page is a no-op
	check("clear on empty")
	if !b.Empty() {
		t.Fatal("Test or Clear allocated a page")
	}
	for i, k := range keys {
		if i%3 == 0 {
			b.Set(k)
		} else if i%3 == 1 {
			if b.TestAndSet(k) {
				t.Fatalf("TestAndSet(%d) on a fresh key reported it present", k)
			}
		}
		if i%3 != 2 {
			want[k] = true
		}
	}
	check("after set")
	for i, k := range keys {
		if got := b.TestAndSet(k); got != (i%3 != 2) {
			t.Fatalf("TestAndSet(%d) = %v, want %v", k, got, i%3 != 2)
		}
		want[k] = true
	}
	check("after TestAndSet")
	for i := len(keys) - 1; i >= 0; i -= 2 { // reverse order defeats the page memo
		b.Clear(keys[i])
		delete(want, keys[i])
	}
	check("after clear")
}

// TestTableEntries checks that At and Find reach one entry per key,
// that entries never written read as zero, and that Find allocates
// no page.
func TestTableEntries(t *testing.T) {
	type entry struct {
		a, b uint64
		c    uint8
	}
	var tb Table[entry]
	keys := []int64{math.MinInt64, -PageLen - 1, -1, 0, 1, PageLen - 1, PageLen, 5 * PageLen, math.MaxInt64}
	for _, k := range keys {
		if p := tb.Find(k); p != nil {
			t.Fatalf("Find(%d) on an empty table = %+v, want nil", k, *p)
		}
	}
	if !tb.Empty() {
		t.Fatal("Find allocated a page")
	}
	for i, k := range keys {
		*tb.At(k) = entry{a: uint64(i), b: uint64(k), c: uint8(i + 1)}
	}
	if tb.Empty() {
		t.Fatal("table empty after At")
	}
	for i := len(keys) - 1; i >= 0; i-- { // reverse order defeats the page memo
		k := keys[i]
		want := entry{a: uint64(i), b: uint64(k), c: uint8(i + 1)}
		if got := tb.Find(k); got == nil || *got != want {
			t.Fatalf("Find(%d) = %v, want %+v", k, got, want)
		}
		if got := tb.At(k); *got != want {
			t.Fatalf("At(%d) = %+v, want %+v", k, *got, want)
		}
	}
	// A neighbour on an allocated page reads as the zero entry.
	if got := tb.Find(2); got == nil || *got != (entry{}) {
		t.Fatalf("Find(2) = %v, want a zero entry", got)
	}
}
