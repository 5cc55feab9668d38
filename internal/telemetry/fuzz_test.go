package telemetry

import (
	"testing"

	"ccl/internal/trace"
)

// FuzzThreeCSum replays fuzz-derived traces (trace.FromBytes) through
// an observed hierarchy and checks the 3C accounting identity:
// compulsory + capacity + conflict misses must equal each level's
// demand miss counter, for any geometry and access stream.
func FuzzThreeCSum(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 8, 15})
	f.Add([]byte{2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := trace.FromBytes(data)
		if !ok {
			return
		}
		if err := checkThreeCSums(tr); err != nil {
			t.Fatal(err)
		}
	})
}
