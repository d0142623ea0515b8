package sched

import (
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestStaticFiresImmediatelyThenWaits(t *testing.T) {
	s := NewStatic(time.Minute)
	if !s.Due(t0) {
		t.Fatal("first training should be due immediately")
	}
	s.TrainingDone(t0, time.Second)
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
	// Feed a steady load: 10 queries/second, 50ms latency each.
	now := t0
	for i := 0; i < 50; i++ {
		now = now.Add(100 * time.Millisecond)
		d.ObserveQueries(now, 1, 50*time.Millisecond)
	}
	// T' = S*T*pr*pl = 2 * 4s * 10/s * 0.05s = 4s
	iv := d.nextInterval(4)
	if iv < 3*time.Second || iv > 5*time.Second {
		t.Fatalf("interval = %v, want ≈4s", iv)
	}
}

func TestDynamicGuaranteesQueryTime(t *testing.T) {
	// T' must exceed T*pr*pl for any slack ≥ 1 (paper's guarantee).
	d := NewDynamic(1.5, time.Millisecond)
	now := t0
	for i := 0; i < 50; i++ {
		now = now.Add(50 * time.Millisecond) // 20 qps
		d.ObserveQueries(now, 1, 20*time.Millisecond)
	}
	T := 2.0
	backlog := T * d.rate.Value() * d.latency.Value()
	if iv := d.nextInterval(T); iv.Seconds() <= backlog {
		t.Fatalf("interval %v does not cover backlog %vs", iv, backlog)
	}
}

func TestDynamicMinIntervalFloor(t *testing.T) {
	d := NewDynamic(2, time.Second)
	// No queries observed → rate and latency are 0 → floor applies.
	if iv := d.nextInterval(10); iv != time.Second {
		t.Fatalf("interval = %v, want floor 1s", iv)
	}
}

func TestDynamicDueCycle(t *testing.T) {
	d := NewDynamic(2, 100*time.Millisecond)
	if !d.Due(t0) {
		t.Fatal("first training due immediately")
	}
	d.TrainingDone(t0, time.Second)
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
	mk := func(slack float64) *Dynamic {
		d := NewDynamic(slack, time.Millisecond)
		now := t0
		for i := 0; i < 20; i++ {
			now = now.Add(100 * time.Millisecond)
			d.ObserveQueries(now, 1, 50*time.Millisecond)
		}
		return d
	}
	small := mk(1.2).nextInterval(5)
	large := mk(3).nextInterval(5)
	if large <= small {
		t.Fatalf("slack 3 interval %v should exceed slack 1.2 interval %v", large, small)
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewStatic(time.Second).Name() != "static" {
		t.Fatal("static name")
	}
	if NewDynamic(2, time.Second).Name() != "dynamic" {
		t.Fatal("dynamic name")
	}
}

func TestDynamicObserveQueriesBatch(t *testing.T) {
	d := NewDynamic(2, time.Millisecond)
	now := t0
	// 5 batches of 100 queries each, 1 second apart, 2ms per query.
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		d.ObserveQueries(now, 100, 200*time.Millisecond)
	}
	// pr ≈ 100 qps, pl ≈ 2ms → T' = 2 * T * 100 * 0.002 = 0.4*T.
	iv := d.nextInterval(10)
	if iv < 3*time.Second || iv > 5*time.Second {
		t.Fatalf("interval = %v, want ≈4s", iv)
	}
}

func TestObserveQueriesZeroBatchIgnored(t *testing.T) {
	d := NewDynamic(2, time.Second)
	d.ObserveQueries(t0, 0, time.Second)
	if iv := d.nextInterval(100); iv != time.Second {
		t.Fatalf("zero batch changed state: %v", iv)
	}
}

func TestStaticObserveQueriesNoop(t *testing.T) {
	s := NewStatic(time.Minute)
	s.ObserveQueries(t0, 10, time.Second) // must not panic or change state
	if !s.Due(t0) {
		t.Fatal("static state changed by observations")
	}
}
