package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"unsafe"

	"ccl/internal/coherence"
)

const auditManifestPath = "testdata/struct_manifest.json"

// hostCacheLine is the line size the audit judges crossings against:
// the simulated machines' 64-byte L2/LLC blocks, which is also the
// dominant real-world line size the simulator itself runs on.
const hostCacheLine = 64

// structAudit is one hot struct's layout facts, as recorded in the
// checked-in manifest.
type structAudit struct {
	Name  string  `json:"name"`
	Size  uintptr `json:"size"`
	Align uintptr `json:"align"`
	// PerLine is how many elements fit one 64-byte cache line; zero
	// means the struct is larger than a line.
	PerLine int `json:"per_line"`
	// CrossesLine reports whether array elements of this struct can
	// straddle a line boundary (size not dividing — or divisible
	// by — the line size). Hot array element types must keep this
	// false: a straddling element doubles the lines a scan touches.
	CrossesLine bool `json:"crosses_line"`
}

// auditOf computes the audit row for a concrete size/align pair.
func auditOf(name string, size, align uintptr) structAudit {
	a := structAudit{Name: name, Size: size, Align: align}
	if size <= hostCacheLine {
		a.PerLine = int(hostCacheLine / size)
	}
	a.CrossesLine = size%hostCacheLine != 0 && hostCacheLine%size != 0
	return a
}

// currentAudits enumerates the simulator's hot structs: everything a
// demand access or a snoop touches per step. Adding a field to any of
// these shows up here as a manifest diff — the review artifact the
// struct-audit gate exists to force.
func currentAudits() []structAudit {
	return []structAudit{
		auditOf("cache.line", unsafe.Sizeof(line{}), unsafe.Alignof(line{})),
		auditOf("cache.probe", unsafe.Sizeof(probe{}), unsafe.Alignof(probe{})),
		auditOf("cache.level", unsafe.Sizeof(level{}), unsafe.Alignof(level{})),
		auditOf("cache.Hierarchy", unsafe.Sizeof(Hierarchy{}), unsafe.Alignof(Hierarchy{})),
		auditOf("cache.tlb", unsafe.Sizeof(tlb{}), unsafe.Alignof(tlb{})),
		auditOf("cache.LevelStats", unsafe.Sizeof(LevelStats{}), unsafe.Alignof(LevelStats{})),
		auditOf("coherence.Action", unsafe.Sizeof(coherence.Action{}), unsafe.Alignof(coherence.Action{})),
		auditOf("coherence.State", unsafe.Sizeof(coherence.State(0)), unsafe.Alignof(coherence.State(0))),
		auditOf("coherence.Entry", unsafe.Sizeof(coherence.Entry{}), unsafe.Alignof(coherence.Entry{})),
	}
}

// TestStructAudit is the struct-audit gate: the sizes, alignments,
// and cache-line behaviour of the hot structs must match the
// checked-in manifest exactly. A legitimate layout change regenerates
// with GOLDEN_UPDATE=1 and the manifest diff documents what grew.
func TestStructAudit(t *testing.T) {
	buf, err := json.MarshalIndent(currentAudits(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(auditManifestPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", auditManifestPath)
	}
	golden, err := os.ReadFile(auditManifestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("hot-struct layout drifted from %s (regenerate with GOLDEN_UPDATE=1 if the change is intended)\ngot:\n%s\nwant:\n%s",
			auditManifestPath, buf, golden)
	}
}

// TestStructAuditInvariants asserts the layout properties the hot
// path depends on, independent of exact manifest values — these hold
// on any architecture, not just the one the manifest was recorded on.
func TestStructAuditInvariants(t *testing.T) {
	// The per-way metadata must stay a power-of-two 32 bytes: two
	// lines per 64-byte cache line, no element ever straddles one.
	// Growing line past 32 bytes doubles the metadata footprint of
	// every set scan.
	if s := unsafe.Sizeof(line{}); s != 32 {
		t.Errorf("cache.line is %d bytes, want 32", s)
	}
	// The probe scratch must fit a line: one per level, read and
	// written on every miss.
	if s := unsafe.Sizeof(probe{}); s > hostCacheLine {
		t.Errorf("cache.probe is %d bytes, exceeds one cache line", s)
	}
	// A coherence Action is returned by value per granule access;
	// keep it inside one line.
	if s := unsafe.Sizeof(coherence.Action{}); s > hostCacheLine {
		t.Errorf("coherence.Action is %d bytes, exceeds one cache line", s)
	}
	// Directory state must stay a single byte: it shares the
	// directory entry with two 64-bit core masks.
	if s := unsafe.Sizeof(coherence.State(0)); s != 1 {
		t.Errorf("coherence.State is %d bytes, want 1", s)
	}
	// The crossing gate applies to the bulk array element type the
	// demand path scans per set: line. (probe and level live in tiny
	// per-hierarchy slices where a crossing is irrelevant; their
	// sizes are still locked by the manifest.)
	for _, a := range currentAudits() {
		if a.Name == "cache.line" && a.CrossesLine {
			t.Errorf("%s (%d bytes) straddles cache-line boundaries in arrays", a.Name, a.Size)
		}
	}
}
