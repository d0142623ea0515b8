package sched

import (
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// interval is the gap the scheduler's last TrainingDone at now set before
// the next training.
func interval(d *Dynamic, now time.Time) time.Duration { return d.next.Sub(now) }

// trainAfter reports a training that took trained and ended a window of
// length window in which the deployment served served; it returns the end
// of the window.
func trainAfter(d *Dynamic, start time.Time, window, trained, served time.Duration) time.Time {
	end := start.Add(window)
	d.TrainingDone(end, trained, d.lastServed+served)
	return end
}

func TestStaticFiresImmediatelyThenWaits(t *testing.T) {
	s := NewStatic(time.Minute)
	if !s.Due(t0) {
		t.Fatal("first training should be due immediately")
	}
	s.TrainingDone(t0, time.Second, 0)
	if s.Due(t0.Add(30 * time.Second)) {
		t.Fatal("should not be due before interval")
	}
	if !s.Due(t0.Add(time.Minute)) {
		t.Fatal("should be due at interval")
	}
}

func TestStaticBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic(0)
}

func TestDynamicFormula(t *testing.T) {
	d := NewDynamic(2, time.Millisecond)
	d.TrainingDone(t0, 4*time.Second, 0)
	// A steady load over 10 s: 10 queries/second at 50 ms each is 0.5 s
	// served per second, 5 s in the window.
	now := trainAfter(d, t0, 10*time.Second, 4*time.Second, 5*time.Second)
	// T' = S*T*pr*pl = 2 * 4s * 10/s * 0.05s = 4s
	if iv := interval(d, now); iv != 4*time.Second {
		t.Fatalf("interval = %v, want 4s", iv)
	}
}

func TestDynamicGuaranteesQueryTime(t *testing.T) {
	// T' must exceed T*pr*pl for any slack ≥ 1 (paper's guarantee).
	d := NewDynamic(1.5, time.Millisecond)
	d.TrainingDone(t0, 2*time.Second, 0)
	// 20 qps at 20 ms each for 5 s: 2 s served.
	now := trainAfter(d, t0, 5*time.Second, 2*time.Second, 2*time.Second)
	backlog := 2.0 * 20 * 0.020
	if iv := interval(d, now); iv.Seconds() <= backlog {
		t.Fatalf("interval %v does not cover backlog %vs", iv, backlog)
	}
}

func TestDynamicMinIntervalFloor(t *testing.T) {
	d := NewDynamic(2, time.Second)
	// The first training has no window to read a load from, however much
	// the deployment served before it → floor applies.
	d.TrainingDone(t0, 10*time.Second, time.Hour)
	if iv := interval(d, t0); iv != time.Second {
		t.Fatalf("interval = %v, want floor 1s", iv)
	}
}

func TestDynamicDueCycle(t *testing.T) {
	d := NewDynamic(2, 100*time.Millisecond)
	if !d.Due(t0) {
		t.Fatal("first training due immediately")
	}
	d.TrainingDone(t0, time.Second, 0)
	if d.Due(t0.Add(50 * time.Millisecond)) {
		t.Fatal("not due before floor")
	}
	if !d.Due(t0.Add(150 * time.Millisecond)) {
		t.Fatal("due after floor")
	}
}

func TestDynamicBadParamsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewDynamic(0.5, time.Second) },
		func() { NewDynamic(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDynamicLargerSlackLargerInterval(t *testing.T) {
	mk := func(slack float64) time.Duration {
		d := NewDynamic(slack, time.Millisecond)
		d.TrainingDone(t0, 5*time.Second, 0)
		now := trainAfter(d, t0, 2*time.Second, 5*time.Second, time.Second)
		return interval(d, now)
	}
	small, large := mk(1.2), mk(3)
	if large <= small {
		t.Fatalf("slack 3 interval %v should exceed slack 1.2 interval %v", large, small)
	}
}

// TestDynamicFollowsWindowDelta: pr·pl is the load since the previous
// training, not the deployment's whole history — a long busy past does not
// stretch the interval after a quiet window.
func TestDynamicFollowsWindowDelta(t *testing.T) {
	d := NewDynamic(2, time.Millisecond)
	d.TrainingDone(t0, 10*time.Second, 0)
	// An hour at full load: one second served per second.
	now := trainAfter(d, t0, time.Hour, 10*time.Second, time.Hour)
	if iv := interval(d, now); iv != 20*time.Second {
		t.Fatalf("busy window: interval = %v, want 20s", iv)
	}
	// Then 10 s at 100 qps × 2 ms: 2 s served, a load of 0.2.
	now = trainAfter(d, now, 10*time.Second, 10*time.Second, 2*time.Second)
	if d.lastServed <= time.Hour {
		t.Fatalf("cumulative served = %v, want over an hour", d.lastServed)
	}
	// T' = 2 * 10s * 0.2 = 4s, where the cumulative quotient would give
	// about 20s.
	if iv := interval(d, now); iv != 4*time.Second {
		t.Fatalf("quiet window: interval = %v, want 4s", iv)
	}
}

func TestDynamicIdleWindowFloors(t *testing.T) {
	d := NewDynamic(2, time.Second)
	d.TrainingDone(t0, 100*time.Second, 5*time.Second)
	// Nothing served since the previous training: pr·pl is 0.
	now := trainAfter(d, t0, time.Minute, 100*time.Second, 0)
	if iv := interval(d, now); iv != time.Second {
		t.Fatalf("idle window: interval = %v, want floor 1s", iv)
	}
	// A window of no wall-clock time reads no load either.
	d.TrainingDone(now, 100*time.Second, d.lastServed+time.Second)
	if iv := interval(d, now); iv != time.Second {
		t.Fatalf("empty window: interval = %v, want floor 1s", iv)
	}
}

func TestStaticIgnoresServed(t *testing.T) {
	a, b := NewStatic(time.Minute), NewStatic(time.Minute)
	a.TrainingDone(t0, time.Second, 0)
	b.TrainingDone(t0, time.Second, time.Hour)
	if a.next != b.next {
		t.Fatalf("served moved the static schedule: %v vs %v", a.next, b.next)
	}
}
