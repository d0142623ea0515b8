package main

import (
	"strings"
	"testing"
	"time"
)

// fakeClock lets the pacer's accounting run without sleeping.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.slept = append(c.slept, d); c.now = c.now.Add(d) }

func TestPacerSleepsUntilDueAndReportsNoLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := pacer{start: start, interval: 20 * time.Millisecond}

	due, late := p.wait(0, clk.Now, clk.Sleep)
	if !due.Equal(start) || late != 0 || len(clk.slept) != 0 {
		t.Fatalf("operation 0: due %v late %v slept %v; want due at start, no lateness, no sleep", due, late, clk.slept)
	}
	// The first request took 5 ms; the generator sleeps the other 15.
	clk.now = start.Add(5 * time.Millisecond)
	due, late = p.wait(1, clk.Now, clk.Sleep)
	if want := start.Add(20 * time.Millisecond); !due.Equal(want) || late != 0 {
		t.Fatalf("operation 1: due %v late %v; want %v, 0", due, late, want)
	}
	if len(clk.slept) != 1 || clk.slept[0] != 15*time.Millisecond {
		t.Fatalf("slept %v, want one sleep of 15ms", clk.slept)
	}
}

func TestPacerChargesAStallToLaterOperations(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := pacer{start: start, interval: 20 * time.Millisecond}

	// Operation 0 stalls for 70 ms: operations 1, 2 and 3 were due at 20,
	// 40 and 60 ms and leave late, without sleeping, still on the original
	// schedule.
	clk.now = start.Add(70 * time.Millisecond)
	for i, wantLate := range []time.Duration{50 * time.Millisecond, 30 * time.Millisecond, 10 * time.Millisecond} {
		due, late := p.wait(i+1, clk.Now, clk.Sleep)
		if want := start.Add(time.Duration(i+1) * 20 * time.Millisecond); !due.Equal(want) {
			t.Errorf("operation %d due %v, want %v: the schedule must not shift after a stall", i+1, due, want)
		}
		if late != wantLate {
			t.Errorf("operation %d late %v, want %v", i+1, late, wantLate)
		}
	}
	if len(clk.slept) != 0 {
		t.Errorf("a late generator slept: %v", clk.slept)
	}
	// Latency is charged from the due time: an ack read at 72 ms for the
	// chunk due at 20 ms took 52 ms, not the 2 ms it spent on the wire.
	ack := start.Add(72 * time.Millisecond)
	if got := ack.Sub(p.due(1)); got != 52*time.Millisecond {
		t.Errorf("latency from due time = %v, want 52ms", got)
	}
	// Once caught up, the generator sleeps again.
	due, late := p.wait(4, clk.Now, clk.Sleep)
	if late != 0 || len(clk.slept) != 1 || clk.slept[0] != 10*time.Millisecond || !due.Equal(start.Add(80*time.Millisecond)) {
		t.Errorf("operation 4: due %v late %v slept %v; want on time after a 10ms sleep", due, late, clk.slept)
	}
}

func TestPredictCheckerFrozenAnswersMustRepeat(t *testing.T) {
	chk := newPredictChecker("url", 1, 2, true)
	first := []byte(`{"predictions":[1],"served":1,"dropped":0,"latency_ms":0.012}` + "\n")
	if err := chk.check(0, first); err != nil {
		t.Fatalf("first answer rejected: %v", err)
	}
	sameButSlower := []byte(`{"predictions":[1],"served":1,"dropped":0,"latency_ms":0.5}` + "\n")
	if err := chk.check(0, sameButSlower); err != nil {
		t.Fatalf("an answer differing only in latency_ms was rejected: %v", err)
	}
	flipped := []byte(`{"predictions":[-1],"served":1,"dropped":0,"latency_ms":0.012}` + "\n")
	if err := chk.check(0, flipped); err == nil || !strings.Contains(err.Error(), "changed while the model was frozen") {
		t.Fatalf("a changed answer passed the frozen check: %v", err)
	}
	if err := chk.check(1, flipped); err != nil {
		t.Fatalf("another body's first answer was compared to body 0's: %v", err)
	}
}

func TestPredictCheckerInvariants(t *testing.T) {
	bad := map[string]string{
		"served + dropped":   `{"predictions":[1],"served":1,"dropped":0,"latency_ms":1}`,
		"predictions length": `{"predictions":[1],"served":2,"dropped":0,"latency_ms":1}`,
		"label not ±1":       `{"predictions":[1,0.3],"served":2,"dropped":0,"latency_ms":1}`,
		"missing served":     `{"predictions":[1,1],"dropped":0,"latency_ms":1}`,
		"not json":           `<html>`,
		"missing latency_ms": `{"predictions":[1,1],"served":2,"dropped":0}`,
		"NaN literal":        `{"predictions":[1,NaN],"served":2,"dropped":0,"latency_ms":1}`,
	}
	for name, body := range bad {
		if err := newPredictChecker("url", 2, 1, true).check(0, []byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	live := newPredictChecker("taxi", 3, 1, false)
	for _, ok := range []string{
		`{"predictions":[6.1,7.25],"served":2,"dropped":1,"latency_ms":1}`,
		`{"predictions":[5.9,7.5],"served":2,"dropped":1,"latency_ms":2}`, // the model may move while a writer runs
	} {
		if err := live.check(0, []byte(ok)); err != nil {
			t.Errorf("live checker rejected %s: %v", ok, err)
		}
	}
}

func TestTrivialErrorAndWindowError(t *testing.T) {
	if got := trivialError("url", []float64{1, 1, 1, -1}); got != 0.25 {
		t.Errorf("url trivial error = %v, want the minority share 0.25", got)
	}
	if got := trivialError("taxi", []float64{1, 3}); got != 1 {
		t.Errorf("taxi trivial error = %v, want the standard deviation 1", got)
	}
	// 100 records at 20 % error, then 100 more bring the cumulative rate to
	// 15 %: the window's own rate is 10 %.
	url := windowError("url", statsView{0.20, 100}, statsView{0.15, 200})
	if d := url - 0.10; d > 1e-12 || d < -1e-12 {
		t.Errorf("url window error = %v, want 0.10", url)
	}
	// RMSE 2 over 100 records (sum of squares 400), then cumulative RMSE
	// sqrt(2.5) over 200 (sum 500): the window's RMSE is 1.
	taxi := windowError("taxi", statsView{2, 100}, statsView{1.5811388300841898, 200})
	if d := taxi - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("taxi window error = %v, want 1", taxi)
	}
}

func TestLabelsOf(t *testing.T) {
	url, err := labelsOf("url", [][]byte{[]byte("+1\t0.1,?,0.3,0.4\tt1 t2"), []byte("-1\t0,0,0,0\tt9")})
	if err != nil || len(url) != 2 || url[0] != 1 || url[1] != -1 {
		t.Errorf("url labels = %v, %v", url, err)
	}
	if _, err := labelsOf("url", [][]byte{[]byte("0\tx")}); err == nil {
		t.Error("a url record without a ±1 label was accepted")
	}
	taxi, err := labelsOf("taxi", [][]byte{
		[]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.9,40.7,-73.8,40.8,1"),
		[]byte("2015-02-01 00:00:00,2015-02-01 00:00:05,-73.9,40.7,-73.8,40.8,1"), // under 10 s
		[]byte("2015-02-01 00:00:00,2015-02-02 00:00:00,-73.9,40.7,-73.8,40.8,1"), // over 22 h
		[]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.9,40.7,-73.9,40.7,1"), // never moved
	})
	if err != nil || len(taxi) != 1 || taxi[0] < 6.39 || taxi[0] > 6.40 { // log1p(600)
		t.Errorf("taxi labels = %v, %v; want [log1p(600)]", taxi, err)
	}
}

func TestPerSecondIsTheMedianWindow(t *testing.T) {
	st := &opStats{}
	for _, rate := range []float64{10, 10, 2, 10, 11} { // the machine stalled during the third window
		st.add(&opStats{attempted: 3, rates: []float64{rate}})
	}
	if got := st.perSecond(); got != 10 || st.attempted != 15 {
		t.Errorf("perSecond = %v attempted = %d, want the median window 10 (the mean would be 8.6) and 15", got, st.attempted)
	}
}
