package policy

import (
	"reflect"
	"testing"

	"split/internal/gpusim"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// TestPartitionDisabledIdentity is the tentpole's regression guarantee: a
// fleet with Partitions unset (0) and one with Partitions: 1 must produce
// bit-identical runs — records AND trace events DeepEqual — because one
// lane per device at fraction 1 is exactly the unpartitioned scheduler.
func TestPartitionDisabledIdentity(t *testing.T) {
	catalog := synthCatalog()
	arrivals := fleetArrivals()
	build := func(partitions int, placement string) *Split {
		return &Split{Config: Config{
			Alpha:            4,
			Elastic:          sched.DefaultElastic(),
			EnforceDeadlines: true,
			PredictiveShed:   true,
			Faults:           fleetFaults(),
			Devices:          2,
			Placement:        placement,
			Partitions:       partitions,
		}}
	}
	for _, placement := range place.Names() {
		baseTr := trace.New()
		baseRecs := build(0, placement).Run(arrivals, catalog, baseTr)
		tr := trace.New()
		recs := build(1, placement).Run(arrivals, catalog, tr)
		if !reflect.DeepEqual(baseRecs, recs) {
			t.Fatalf("placement %q: Partitions:1 changed records:\nbase: %+v\ngot:  %+v", placement, baseRecs, recs)
		}
		if !reflect.DeepEqual(baseTr.Events(), tr.Events()) {
			t.Fatalf("placement %q: Partitions:1 changed the trace", placement)
		}
		for _, e := range tr.Events() {
			if e.Part != 0 {
				t.Fatalf("placement %q: M=1 run emitted partition-tagged event %+v", placement, e)
			}
		}
	}
}

// TestPartitionLanesOverlapInVirtualTime: two unsplittable requests placed
// on distinct partitions of one device must genuinely run concurrently —
// their exec spans overlap — and each is stretched by the efficiency curve
// (fraction 1/2 at Beta 0.5 runs at sqrt(1/2) speed), so both finish well
// before the serial makespan.
func TestPartitionLanesOverlapInVirtualTime(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "huge", AtMs: 0},
		{ID: 1, Model: "huge", AtMs: 0},
	}
	tr := trace.New()
	s := &Split{Config: Config{
		Alpha: 4, Elastic: sched.DefaultElastic(),
		Devices: 1, Placement: place.RoundRobin,
		Partitions: 2, PartitionWidth: place.WidthFixed,
	}}
	recs := s.Run(arrivals, catalog, tr)
	if len(recs) != 2 {
		t.Fatalf("%d records for 2 arrivals", len(recs))
	}
	// huge is 60ms at full width; at fraction 0.5 with the default
	// Beta=0.5 curve it runs 60/sqrt(0.5) ~ 84.85ms. Serial would be 120.
	for _, r := range recs {
		if !r.Served() {
			t.Fatalf("req %d outcome %q", r.ID, r.Outcome)
		}
		if r.DoneMs < 84 || r.DoneMs > 86 {
			t.Fatalf("req %d finished at %.2fms, want ~84.85 (stretched concurrent run)", r.ID, r.DoneMs)
		}
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d exec spans, want 2: %+v", len(spans), spans)
	}
	a, b := spans[0], spans[1]
	if a.Part == b.Part {
		t.Fatalf("both spans on partition %d — want distinct lanes", a.Part)
	}
	if a.StartMs >= b.EndMs || b.StartMs >= a.EndMs {
		t.Fatalf("spans do not overlap: [%.2f,%.2f] vs [%.2f,%.2f]", a.StartMs, a.EndMs, b.StartMs, b.EndMs)
	}
}

// TestPartitionSpeedsUpSameTypeBurst: on a burst of same-type unsplittable
// requests, spatial sharing (M=2) must beat the temporal scheduler (M=1)
// on makespan: sqrt-efficiency concurrency trades per-request stretch for
// fleet throughput. Width-adaptive must also stay work-conserving.
func TestPartitionSpeedsUpSameTypeBurst(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "huge", AtMs: float64(i)})
	}
	makespan := func(partitions int, width string) float64 {
		s := &Split{Config: Config{
			Alpha: 4, Elastic: sched.DefaultElastic(),
			Devices: 1, Placement: place.RoundRobin,
			Partitions: partitions, PartitionWidth: width,
		}}
		last := 0.0
		for _, r := range s.Run(arrivals, catalog, nil) {
			if !r.Served() {
				t.Fatalf("partitions=%d width=%q: req %d outcome %q", partitions, width, r.ID, r.Outcome)
			}
			if r.DoneMs > last {
				last = r.DoneMs
			}
		}
		return last
	}
	temporal := makespan(1, "")
	spatial := makespan(2, place.WidthFixed)
	if spatial >= temporal*0.8 {
		t.Fatalf("spatial makespan %.1fms vs temporal %.1fms — want at least 20%% gain", spatial, temporal)
	}
	// Adaptive width must complete the same burst (no lane starvation or
	// deadlock when a full-width hold covers sibling anchors) and be no
	// slower than temporal.
	adaptive := makespan(2, place.WidthAdaptive)
	if adaptive > temporal*1.01 {
		t.Fatalf("adaptive makespan %.1fms vs temporal %.1fms — adaptive must not regress", adaptive, temporal)
	}
}

// TestPartitionCostKnobFlowsThrough: a Beta=1 (no concurrency gain) curve
// makes fixed-width sharing exactly work-conserving: two half-width holds
// each take 2x, so the pairwise makespan equals the serial one.
func TestPartitionCostKnobFlowsThrough(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "huge", AtMs: 0},
		{ID: 1, Model: "huge", AtMs: 0},
	}
	s := &Split{Config: Config{
		Alpha: 4, Elastic: sched.DefaultElastic(),
		Devices: 1, Placement: place.RoundRobin,
		Partitions: 2, PartitionWidth: place.WidthFixed,
		PartitionCost: gpusim.PartitionCost{Beta: 1},
	}}
	for _, r := range s.Run(arrivals, catalog, nil) {
		if r.DoneMs < 119 || r.DoneMs > 121 {
			t.Fatalf("Beta=1 req %d finished at %.2fms, want ~120 (no concurrency gain)", r.ID, r.DoneMs)
		}
	}
}
