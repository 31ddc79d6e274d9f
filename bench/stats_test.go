package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		q, v   float64
	}{
		{"p50", s, 0.50, 500},
		{"p99 of 1000: ten samples beyond it", s, 0.99, 990},
		{"p100", s, 1, 1000},
		{"p0 is the minimum", s, 0, 1},
		{"single sample", []float64{7}, 0.99, 7},
		{"p99 of 100", s[:100], 0.99, 99},
	} {
		if v := nearestRank(tc.sorted, tc.q); v != tc.v {
			t.Errorf("%s: nearestRank = %v, want %v", tc.name, v, tc.v)
		}
	}
	if v := nearestRank(nil, 0.5); v != 0 {
		t.Errorf("empty: got %v", v)
	}
}

func TestSummariseReportsSampleCount(t *testing.T) {
	ms := make([]float64, 2000)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i) // unsorted input
	}
	l := summarise(ms)
	if l.n != 2000 || l.p50 != 999 || l.p99 != 1979 {
		t.Errorf("summarise = %+v", l)
	}
	if ms[0] != 1999 {
		t.Error("summarise reordered its input")
	}
}

// The reference values are Python's statistics.median and
// statistics.quantiles(xs, n=4).
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{50, 40, 30, 20, 10}, 15, 30, 45, 30},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
}

func TestBisectTerminatesAtFixedProbes(t *testing.T) {
	const capacity = 11700.0
	var probed []float64
	got := bisect(1000, 16000, 6, func(rate float64) bool {
		probed = append(probed, rate)
		return rate <= capacity
	})
	if len(probed) != 6 {
		t.Errorf("bisect made %d probes, want 6", len(probed))
	}
	step := (16000.0 - 1000) / 64
	if got > capacity || capacity-got >= step {
		t.Errorf("bisect = %v, want within one step (%v) below %v", got, step, capacity)
	}
	if !slices.Contains(probed, got) {
		t.Errorf("bisect = %v, a rate it never probed (%v)", got, probed)
	}

	if got := bisect(1000, 16000, 6, func(float64) bool { return false }); got != 0 {
		t.Errorf("no probe passing: bisect = %v, want 0", got)
	}
	if got := bisect(1000, 16000, 6, func(float64) bool { return true }); got != 16000-step {
		t.Errorf("every probe passing: bisect = %v, want %v", got, 16000-step)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	s := schedule{rate: 1000, conns: 2, dur: 10 * time.Millisecond}
	if n := s.total(); n != 10 {
		t.Fatalf("total = %d, want 10", n)
	}
	if d := s.due(3); d != 3*time.Millisecond {
		t.Errorf("due(3) = %v, want 3ms", d)
	}
	// 2000 req/s over 2.5 s is exactly 5000 requests; rounding must not
	// add one.
	if n := (schedule{rate: 2000, conns: 2, dur: 2500 * time.Millisecond}).total(); n != 5000 {
		t.Errorf("total = %d, want 5000", n)
	}
	if n := (schedule{rate: 1000, conns: 1, dur: 2500 * time.Microsecond}).total(); n != 3 {
		t.Errorf("total over a fractional period = %d, want 3 (due at 0, 1 and 2 ms)", n)
	}
}

func TestScheduleTakeAccountsLateness(t *testing.T) {
	s := schedule{rate: 1000, conns: 2, dur: 10 * time.Millisecond}
	// Connection 1 owns requests 1, 3, 5, ...; waking at 4.5 ms it owes
	// 1 and 3, which are 3.5 ms and 1.5 ms late.
	next, late := s.take(1, 4500*time.Microsecond, nil)
	if next != 5 || len(late) != 2 || math.Abs(late[0]-3.5) > 1e-9 || math.Abs(late[1]-1.5) > 1e-9 {
		t.Fatalf("take = %d, %v; want 5, [3.5 1.5]", next, late)
	}
	// Nothing is due before its time, and a punctual send is 0 late.
	next, late = s.take(5, 5*time.Millisecond, late)
	if next != 7 || len(late) != 3 || late[2] != 0 {
		t.Fatalf("take = %d, %v; want 7 and a third, punctual entry", next, late)
	}
	if next, late2 := s.take(7, 6*time.Millisecond, late); next != 7 || len(late2) != 3 {
		t.Errorf("take before request 7 is due = %d, %d entries", next, len(late2))
	}
	// Nothing past the phase's end is taken, however late the clock.
	if next, late2 := s.take(7, time.Second, nil); next != 11 || len(late2) != 2 {
		t.Errorf("take at the end = %d, %d entries; want 11 and 2 (requests 7 and 9)", next, len(late2))
	}
}
