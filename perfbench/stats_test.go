package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		want     float64
		wantPct  float64
		wantRank float64
	}{
		{1000, 99, 99, 990}, // exactly 10 beyond p99
		{999, 99, 95, 950},  // 9.99 beyond p99: fall back to p95
		{200, 99, 95, 190},  // 10 beyond p95
		{100, 99, 90, 90},   // 10 beyond p90
		{40, 99, 75, 30},    // 10 beyond p75
		{25, 99, 50, 13},    // 12.5 beyond p50
		{5, 99, 50, 3},      // too few for any step: median
		{100000, 50, 50, 50000},
	}
	for _, c := range cases {
		v, p, n := tail(seq(c.n), c.want)
		if p != c.wantPct || n != c.n || v != c.wantRank {
			t.Errorf("tail(%d samples, want p%g) = (%g, p%g, %d), want (%g, p%g, %d)",
				c.n, c.want, v, p, n, c.wantRank, c.wantPct, c.n)
		}
	}
	if v, p, n := tail(nil, 99); v != 0 || p != 0 || n != 0 {
		t.Errorf("tail(empty) = (%g, %g, %d)", v, p, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestLatenessAccounting(t *testing.T) {
	late := make([]float64, 200)
	for i := range late {
		late[i] = 0.1
	}
	late[0] = -0.5 // early sends count as on time
	late[1] = 7    // one outlier: beyond p99 of 200, inside the max bound
	l := summarizeLateness(late)
	if l.N != 200 || l.P99Ms != 0.1 || l.MaxMs != 7 {
		t.Fatalf("summarizeLateness = %+v", l)
	}
	if !l.valid() {
		t.Errorf("one 7 ms outlier in 200 sends should keep the run valid")
	}
	for i := 0; i < 10; i++ {
		late[i] = lateP99BoundMs + 1
	}
	if l := summarizeLateness(late); l.valid() {
		t.Errorf("p99 lateness %.1f ms above the bound should invalidate the run", l.P99Ms)
	}
	if l := summarizeLateness([]float64{0, 0, lateMaxBoundMs + 1}); l.valid() {
		t.Errorf("max lateness above the bound should invalidate the run")
	}
	if l := summarizeLateness(nil); !l.valid() || l.N != 0 {
		t.Errorf("no sends: %+v", l)
	}
	if math.IsNaN(summarizeLateness([]float64{1}).P99Ms) {
		t.Errorf("single sample p99 is NaN")
	}
}
