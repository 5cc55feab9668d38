package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// report collects one run's metrics, op counts and check failures.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// broken is set by a failed check that is not an op, such as a
	// replay cross-check; it makes the run incorrect.
	broken bool
	tr     *tracer
	// detail holds facts about the run that are not metrics, such as
	// sample counts; it is printed on the line before the result.
	detail map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, tr: newTracer(), detail: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// ops records attempted ops and how many of them failed their check.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// fault reports a failed check on standard error. An op check also
// counts the op in failed through ops; anything else marks the run
// broken.
func (r *report) fault(op bool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	if !op {
		r.broken = true
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the output line. Every metric in want is present:
// an end-to-end metric the workload did not measure is an error, a
// per-layer metric of a layer the workload bypasses reads 0.
func (r *report) result(want []metricSpec, perLayer bool) (result, error) {
	res := result{
		Correct:   r.failed == 0 && !r.broken && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	var missing []string
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok && !perLayer {
			missing = append(missing, m.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("workload did not measure %v", missing)
	}
	return res, nil
}
