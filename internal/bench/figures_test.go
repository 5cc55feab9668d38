package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

const goldenFiguresPath = "testdata/golden_figures.json"

// TestGoldenFigures locks the quick-mode tables of the paper's
// headline figures — fig5 (the colored B-tree and the C-tree against
// the plain trees), fig6 (RADIANCE clustering and clustering+coloring,
// VIS under ccmalloc), and fig7 (the Olden schemes, health and mst
// clustering+coloring among them). Every placement policy the paper
// evaluates runs somewhere in these three, so a placement refactor
// that shifts a single allocation shows up here as a byte diff. The
// three run through one pooled Run so their jobs share the worker
// pool. Regenerate deliberate changes with GOLDEN_UPDATE=1.
func TestGoldenFigures(t *testing.T) {
	var specs []Spec
	for _, id := range []string{"fig5", "fig6", "fig7"} {
		sp, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		specs = append(specs, sp)
	}
	rep := Run(context.Background(), specs, Options{})
	if rep.Interrupted || len(rep.Failures) != 0 {
		t.Fatalf("interrupted=%v failures=%+v", rep.Interrupted, rep.Failures)
	}
	buf, err := json.MarshalIndent(rep.Experiments, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(goldenFiguresPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFiguresPath)
	}
	golden, err := os.ReadFile(goldenFiguresPath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("fig5/fig6/fig7 tables drifted from %s (regenerate with GOLDEN_UPDATE=1 if intended)\ngot:\n%s\nwant:\n%s",
			goldenFiguresPath, buf, golden)
	}
}
