package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 10, End: 30},
		{Name: "score", Parent: 0, Start: 40, End: 70},
		{Name: "dot", Parent: 2, Start: 45, End: 55}, // a grandchild is its parent's business only
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 20 - 30, 20, 30 - 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "tick", Parent: -1, Start: 0, End: 100},
		{Name: "shard", Parent: 0, Start: 10, End: 60},
		{Name: "shard", Parent: 0, Start: 20, End: 50},  // inside the first
		{Name: "shard", Parent: 0, Start: 55, End: 80},  // overlaps the first's end
		{Name: "late", Parent: 0, Start: 95, End: 120},  // sticks out of the parent
		{Name: "early", Parent: 0, Start: -5, End: 5},   // starts before it
		{Name: "other", Parent: -1, Start: 0, End: 100}, // a second root is nobody's child
	}
	got := selfTimes(spans)
	// Covered: [0,5] ∪ [10,80] ∪ [95,100] = 5 + 70 + 5.
	if want := time.Duration(100 - 80); got[0] != want {
		t.Errorf("self time with overlapping children = %d, want %d", got[0], want)
	}
	if got[6] != 100 {
		t.Errorf("childless root self time = %d, want its whole duration 100", got[6])
	}
}

func TestRecorderNilRecordsNothingAndFileRoundTrips(t *testing.T) {
	var off *spanRecorder
	id := off.begin("x", 1, -1)
	off.end(id) // must not panic: this is how span overhead is measured

	r := newSpanRecorder()
	root := r.begin("request", 7, -1)
	child := r.begin("parse", 7, root)
	r.end(child)
	r.end(root)
	if r.spans[child].Parent != root || r.spans[child].Trace != 7 {
		t.Fatalf("child span = %+v, want parent %d and trace 7", r.spans[child], root)
	}
	if r.spans[root].End < r.spans[child].End || r.spans[child].Start < r.spans[root].Start {
		t.Fatalf("child %+v not inside root %+v", r.spans[child], r.spans[root])
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) != 2 || doc.Spans[1] != r.spans[1] {
		t.Fatalf("span file round trip: %v, %+v", err, doc.Spans)
	}
	med := selfTimeMedians(r.spans)
	if _, ok := med["request"]; !ok || len(med) != 2 {
		t.Errorf("self-time medians by name = %v", med)
	}
}
