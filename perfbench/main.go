// Command perfbench is the repository benchmark. It drives the
// simulator's layers and cclserve through seeded workloads, checks
// every output, and prints three JSON lines: the run's provenance,
// details such as sample counts, and last the result.
//
//	go run . --workload paper-bare --seed 1 --seconds 10 --trace 0
//
// It is normally started through run.py, which builds it from the
// checkout it sits in. BENCHMARK.json (read at run time from the
// working directory) lists the workloads and metrics; with --trace 0
// the result carries every end-to-end metric, with --trace 1 every
// per-layer metric. A per-layer metric a workload never reaches is
// reported as 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	commit   string
}

// spanDir is where the traced run writes its spans, relative to the
// checkout root.
var spanDir = filepath.Join(".bench_build", "out")

// runFunc executes one workload and fills rep.
type runFunc func(o options, rep *report) error

var workloads = map[string]runFunc{
	"paper-bare": runPaperBare,
	"serving-mc": runServingMC,
	"observed":   runObserved,
	"cclserve":   runCCLServe,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the provenance line")
	flag.Parse()
	o.traced = traceFlag != 0
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := workloads[o.workload]
	if !ok || !spec.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	prov := provenance(o)
	out, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(out))

	rep := newReport()
	if err := w(o, rep); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	want := spec.EndToEnd
	if o.traced {
		want = spec.PerLayer
	}
	res, err := rep.result(want, o.traced)
	if err != nil {
		return err
	}
	if o.traced {
		if err := rep.tr.write(o, prov); err != nil {
			return err
		}
	}
	for _, line := range []any{map[string]any{"detail": rep.detail}, res} {
		out, err = json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workload names and the metric lists it must report.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// provenance identifies the run: inputs, host, toolchain and source.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.traced,
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
