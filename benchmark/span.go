package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Start and End are offsets from the recorder's
// creation; Parent is the index of the span that caused this one, -1 for a
// root. Spans of one operation share Trace.
type span struct {
	Name   string        `json:"name"`
	Trace  int           `json:"trace"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends; nothing is written
// while anything is being timed. It is used from one goroutine. A nil
// recorder records nothing, which is how the span overhead is measured.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to be passed to end and, as
// parent, to the spans it causes.
func (r *spanRecorder) begin(name string, trace, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (parallel
// parts) and may stick out of the parent (clock order of two reads); covered
// time is the union of the children's intervals clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfTimeMedians groups self times by span name.
func selfTimeMedians(spans []span) map[string]time.Duration {
	byName := make(map[string]latencies)
	for i, d := range selfTimes(spans) {
		byName[spans[i].Name] = append(byName[spans[i].Name], d)
	}
	out := make(map[string]time.Duration, len(byName))
	for name, l := range byName {
		out[name] = quantileOf(l.sorted(), 0.5)
	}
	return out
}

// writeFile writes every recorded span as one JSON document.
func (r *spanRecorder) writeFile(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
