package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 beyond the median
		{20, 0.5, true},
		{99, 0.5, true}, // 9.9 beyond p90
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{5000000, 0.9999, true}, // the ladder ends there
	}
	for _, c := range cases {
		got, ok := supportedTail(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileOfIsNearestRank(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l = append(l, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := quantileOf(l, c.q); got != c.want {
			t.Errorf("quantileOf(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantileOf(nil, 0.5); got != 0 {
		t.Errorf("quantileOf(empty) = %d, want 0", got)
	}
	unsorted := latencies{30, 10, 20}
	if got := quantileOf(unsorted.sorted(), 0.5); got != 20 {
		t.Errorf("median of sorted copy = %d, want 20", got)
	}
	if unsorted[0] != 30 {
		t.Error("sorted() reordered its receiver")
	}
}

// The spread rule of the acceptance check is Python's
// statistics.quantiles(v, n=4); the expected values below are what it prints.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110, 100, 75, 105, 103, 109, 76, 119, 99, 91, 103, 129, 106, 101, 84, 111, 74, 87, 86, 103, 103, 106, 86, 111, 75, 87, 102, 121, 111, 88, 89, 101, 106, 95, 103, 107, 101, 81, 109, 104}, 87, 108.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}
