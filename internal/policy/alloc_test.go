package policy_test

import (
	"testing"

	"split/internal/place"
	"split/internal/policy"
)

// TestSplitRunAllocsPerArrival pins the simulator's allocation-free
// steady state: arrivals stream from the trace instead of sitting on the
// event heap as callbacks, requests come from shared chunks and alias
// their model's block plan, and the lane queues reuse their arrays. What
// remains is per-run setup and the amortized chunk and buffer growth.
func TestSplitRunAllocsPerArrival(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	catalog := goldenDeploy(t)
	arrivals := cohortArrivals(t, 15, false, 20_000)
	s := policy.NewSplit()
	s.Devices, s.Placement = 4, place.LeastLoaded
	allocs := testing.AllocsPerRun(2, func() { s.RunWithStats(arrivals, catalog, nil) })
	if perArrival := allocs / float64(len(arrivals)); perArrival > 0.25 {
		t.Errorf("%.0f allocs for %d arrivals = %.3f per arrival, want <= 0.25",
			allocs, len(arrivals), perArrival)
	}
}
