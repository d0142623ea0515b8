package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := StartSpan("tick")
	c1 := root.StartChild("serve")
	time.Sleep(time.Millisecond)
	c1.Finish()
	c2 := root.StartChild("online-update")
	gc := c2.StartChild("preprocess")
	gc.Finish()
	c2.Finish()
	// A stage its caller timed: recorded as given, the clock is not read.
	root.AddChild("queue-wait", root.Start.Add(-time.Second), 1500*time.Microsecond)
	root.Finish()

	if len(root.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(root.Children))
	}
	if qw := root.Children[2]; qw.Name != "queue-wait" || qw.Duration() != 1500*time.Microsecond || qw.DurationMS != 1.5 ||
		!qw.Start.Equal(root.Start.Add(-time.Second)) {
		t.Fatalf("recorded child: %+v", qw)
	}
	if root.Children[0].Name != "serve" || root.Children[1].Children[0].Name != "preprocess" {
		t.Fatal("span tree shape wrong")
	}
	if c1.DurationMS <= 0 || root.DurationMS < c1.DurationMS {
		t.Fatalf("durations inconsistent: root=%v serve=%v", root.DurationMS, c1.DurationMS)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("child of nil span must be nil")
	}
	c.Finish() // must not panic
	s.Finish()
	s.AddChild("x", time.Now(), time.Second)
	if s.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	var tr *Tracer
	tr.Record(StartSpan("x")) // must not panic
	if tr.Total() != 0 || tr.Last(5) != nil {
		t.Fatal("nil tracer should be empty")
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 100; i++ {
		s := StartSpan(fmt.Sprintf("tick-%d", i))
		s.Finish()
		tr.Record(s)
	}
	if n := len(tr.Last(0)); n != 8 {
		t.Fatalf("ring len = %d, want 8", n)
	}
	if tr.Total() != 100 {
		t.Fatalf("total = %d, want 100", tr.Total())
	}
	last := tr.Last(3)
	if len(last) != 3 {
		t.Fatalf("Last(3) = %d spans", len(last))
	}
	// Newest first.
	for i, want := range []string{"tick-99", "tick-98", "tick-97"} {
		if last[i].Name != want {
			t.Fatalf("Last[%d] = %q, want %q", i, last[i].Name, want)
		}
	}
	all := tr.Last(0)
	if len(all) != 8 || all[7].Name != "tick-92" {
		t.Fatalf("Last(0) wrong: len=%d oldest=%q", len(all), all[len(all)-1].Name)
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 5; i++ {
		s := StartSpan(fmt.Sprintf("t%d", i))
		s.Finish()
		tr.Record(s)
	}
	last := tr.Last(0)
	if len(last) != 5 || last[0].Name != "t4" || last[4].Name != "t0" {
		t.Fatalf("partial ring order wrong: %v", names(last))
	}
}

func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func TestSpanJSON(t *testing.T) {
	root := StartSpan("tick")
	root.StartChild("serve").Finish()
	root.Finish()
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "tick" || len(decoded.Children) != 1 || decoded.Children[0].Name != "serve" {
		t.Fatalf("JSON roundtrip wrong: %s", b)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(32)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				s := StartSpan("t")
				s.Finish()
				tr.Record(s)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if len(tr.Last(0)) != 32 || tr.Total() != 800 {
		t.Fatalf("len=%d total=%d", len(tr.Last(0)), tr.Total())
	}
}
