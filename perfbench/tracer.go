package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// maxStoredSpans bounds the spans kept individually; past it a span
// still counts in its name's totals.
const maxStoredSpans = 50000

// span is one call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`     // op or request id
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotals aggregates every span of one name. Self time is the
// span's duration minus the part its child spans cover.
type spanTotals struct {
	Count  int64            `json:"count"`
	Total  int64            `json:"total_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

type openSpan struct {
	name  int
	start int64
	child int64 // ns covered by children
	index int   // stored index, or -1
}

// tracer records spans in memory. It is confined to one goroutine;
// concurrent clients each get their own and merge at the end. A nil
// tracer records nothing: the untraced run passes nil.
type tracer struct {
	names  []string
	ids    map[string]int
	totals []spanTotals
	open   []openSpan
	spans  []span
}

func newTracer() *tracer {
	return &tracer{ids: map[string]int{}}
}

// now is the tracer's clock, shared with the untraced op timing.
func (t *tracer) now() int64 { return nowNs() }

// name interns a span name.
func (t *tracer) name(s string) int {
	if id, ok := t.ids[s]; ok {
		return id
	}
	t.ids[s] = len(t.names)
	t.names = append(t.names, s)
	t.totals = append(t.totals, spanTotals{})
	return len(t.names) - 1
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1].index
}

func (t *tracer) store(s span) int {
	if len(t.spans) >= maxStoredSpans {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span; spans nest, and end closes the innermost.
func (t *tracer) begin(name string, id int64) {
	if t == nil {
		return
	}
	n := t.name(name)
	start := t.now()
	idx := t.store(span{Name: name, ID: id, Parent: t.parent(), Start: start})
	t.open = append(t.open, openSpan{name: n, start: start, index: idx})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	end := t.now()
	if o.index >= 0 {
		t.spans[o.index].End = end
	}
	t.account(o.name, end-o.start, o.child)
}

// leaf records a finished span with no children under the innermost
// open span; the hot loops time their ops themselves and call it.
func (t *tracer) leaf(name int, start, end, id int64) {
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{Name: t.names[name], ID: id, Parent: t.parent(), Start: start, End: end})
	}
	t.account(name, end-start, 0)
}

func (t *tracer) account(name int, dur, child int64) {
	tot := &t.totals[name]
	tot.Count++
	tot.Total += dur
	tot.Self += dur - child
	if len(t.open) > 0 {
		t.open[len(t.open)-1].child += dur
	}
}

// count adds a counter read at a span boundary to the totals of name.
func (t *tracer) count(name, counter string, v int64) {
	if t == nil {
		return
	}
	tot := &t.totals[t.name(name)]
	if tot.Counts == nil {
		tot.Counts = map[string]int64{}
	}
	tot.Counts[counter] += v
}

// meanNs is the mean duration of the spans named name.
func (t *tracer) meanNs(name string) float64 {
	id, ok := t.ids[name]
	if !ok || t.totals[id].Count == 0 {
		return 0
	}
	return float64(t.totals[id].Total) / float64(t.totals[id].Count)
}

// merge folds another tracer's spans and totals into t.
func (t *tracer) merge(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		if len(t.spans) >= maxStoredSpans {
			break
		}
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	for i, n := range o.names {
		id := t.name(n)
		a, b := &t.totals[id], o.totals[i]
		a.Count += b.Count
		a.Total += b.Total
		a.Self += b.Self
		for k, v := range b.Counts {
			if a.Counts == nil {
				a.Counts = map[string]int64{}
			}
			a.Counts[k] += v
		}
	}
}

// write stores the spans and their totals under spanDir.
func (t *tracer) write(o options, prov map[string]any) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	totals := map[string]spanTotals{}
	for i, n := range t.names {
		totals[n] = t.totals[i]
	}
	doc := map[string]any{
		"provenance": prov,
		"totals":     totals,
		"spans":      t.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
	return os.WriteFile(path, b, 0o644)
}
