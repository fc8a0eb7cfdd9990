package main

import (
	"math"
	"sort"

	"split/internal/stats"
)

// tailLadder is the set of percentiles a tail is reported at, highest
// first. tail picks the highest one that still has tailMinBeyond samples
// beyond it.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond a reported percentile.
const tailMinBeyond = 10

// tail reports the highest percentile of xs that has at least ten samples
// beyond it, never above want, together with that percentile and the
// sample count. With fewer than 20 samples no ladder step qualifies and the
// median is reported. xs is sorted in place.
func tail(xs []float64, want float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	pct = 50
	for _, p := range tailLadder {
		if p <= want && n-rankIndex(n, p)-1 >= tailMinBeyond {
			pct = p
			break
		}
	}
	return rank(xs, pct), pct, n
}

// rank is the nearest-rank percentile of sorted xs.
func rank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of
// n sorted samples; the n - index - 1 samples after it lie beyond it.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// median is the median of xs (mean of the middle pair for even lengths),
// 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// lateness summarizes how far behind schedule the open-loop generator sent
// its requests: p99 and max of (sent - due) in wall milliseconds.
type lateness struct {
	P99Ms, MaxMs float64
	N            int
}

// Late-send bounds beyond which an open-loop run is invalid rather than
// slow: the load it applied was not the schedule it claims. They sit above
// the host's own timer jitter: on a shared 2-vCPU container, an idle Go
// program sleeping on the same Poisson schedule woke up to 4-8 ms late at
// p99 and 12-20 ms late at worst.
const (
	lateP99BoundMs = 20.0
	lateMaxBoundMs = 250.0
)

// summarizeLateness folds per-request lateness samples; negative values
// (sent early, which only clock granularity can cause) count as on time.
func summarizeLateness(lateMs []float64) lateness {
	xs := make([]float64, len(lateMs))
	for i, v := range lateMs {
		xs[i] = math.Max(v, 0)
	}
	sort.Float64s(xs)
	l := lateness{N: len(xs)}
	if len(xs) > 0 {
		l.P99Ms = rank(xs, 99)
		l.MaxMs = xs[len(xs)-1]
	}
	return l
}

// valid reports whether the generator kept to its schedule.
func (l lateness) valid() bool {
	return l.P99Ms <= lateP99BoundMs && l.MaxMs <= lateMaxBoundMs
}
