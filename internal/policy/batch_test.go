package policy

import (
	"reflect"
	"strings"
	"testing"

	"split/internal/gpusim"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// batchBurst is a same-type burst that queues up behind its own head: the
// head starts on an idle device, the rest arrive during its first block and
// form the run micro-batching coalesces.
func batchBurst(modelName string, n int) []workload.Arrival {
	var arrivals []workload.Arrival
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: modelName, AtMs: float64(i) * 0.5})
	}
	return arrivals
}

// TestBatchingDisabledIdentity is the PR's core regression guarantee:
// BatchMax 0 (the zero value) and BatchMax 1 (explicitly disabled) must
// reproduce the unbatched run bit for bit — records and trace events alike —
// on one device and on a fleet, under deadlines, faults, and cancellation.
func TestBatchingDisabledIdentity(t *testing.T) {
	catalog := synthCatalog()
	arrivals := fleetArrivals()
	build := func(devices, batchMax int) *Split {
		return &Split{Config: Config{
			Alpha:            4,
			Elastic:          sched.DefaultElastic(),
			EnforceDeadlines: true,
			PredictiveShed:   true,
			Faults:           fleetFaults(),
			Devices:          devices,
			BatchMax:         batchMax,
			BatchCost:        gpusim.DefaultBatchCost(),
		}}
	}
	for _, devices := range []int{1, 2} {
		baseTr := trace.New()
		base := build(devices, 0).Run(arrivals, catalog, baseTr)
		for _, batchMax := range []int{-1, 1} {
			tr := trace.New()
			recs := build(devices, batchMax).Run(arrivals, catalog, tr)
			if !reflect.DeepEqual(base, recs) {
				t.Fatalf("devices=%d BatchMax=%d changed records:\nbase: %+v\ngot:  %+v",
					devices, batchMax, base, recs)
			}
			if !reflect.DeepEqual(baseTr.Events(), tr.Events()) {
				t.Fatalf("devices=%d BatchMax=%d changed the trace", devices, batchMax)
			}
		}
		for _, e := range baseTr.Events() {
			if e.Batch != 0 {
				t.Fatalf("unbatched run emitted batch id %d: %+v", e.Batch, e)
			}
		}
	}
}

// TestBatchingCoalescesBurst: a same-type burst under BatchMax > 1 must form
// batched grants (visible as shared batch ids on block events), serve every
// request, keep same-model FIFO completion order, and finish materially
// earlier than the serial schedule.
func TestBatchingCoalescesBurst(t *testing.T) {
	catalog := synthCatalog()
	arrivals := batchBurst("short", 8)
	run := func(batchMax int) ([]Record, *trace.Tracer) {
		tr := trace.New()
		s := &Split{Config: Config{Alpha: 4, Elastic: sched.DefaultElastic(), BatchMax: batchMax}}
		return s.Run(arrivals, catalog, tr), tr
	}
	serialRecs, _ := run(1)
	recs, tr := run(4)

	if len(recs) != len(arrivals) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	lastDone := -1.0
	for _, r := range recs { // sorted by ID = arrival order for one model
		if !r.Served() {
			t.Fatalf("req %d outcome %q", r.ID, r.Outcome)
		}
		if r.DoneMs < lastDone-1e-9 {
			t.Fatalf("batching broke same-model FIFO: req %d done %.3f before predecessor %.3f",
				r.ID, r.DoneMs, lastDone)
		}
		if r.DoneMs > lastDone {
			lastDone = r.DoneMs
		}
	}

	// Batched grants appear as groups of block events sharing a batch id,
	// with matched starts and ends, one block index, and 2..BatchMax members.
	type group struct{ starts, ends, members int }
	groups := map[int]*group{}
	for _, e := range tr.Events() {
		if e.Batch == 0 {
			continue
		}
		g := groups[e.Batch]
		if g == nil {
			g = &group{}
			groups[e.Batch] = g
		}
		switch e.Kind {
		case trace.StartBlock:
			g.starts++
		case trace.EndBlock:
			g.ends++
		default:
			t.Fatalf("batch id on non-block event: %+v", e)
		}
	}
	if len(groups) == 0 {
		t.Fatal("no batched grants formed for a same-type burst")
	}
	for id, g := range groups {
		if g.starts != g.ends {
			t.Fatalf("batch %d: %d starts, %d ends", id, g.starts, g.ends)
		}
		if g.starts < 2 || g.starts > 4 {
			t.Fatalf("batch %d has %d members, want 2..4", id, g.starts)
		}
	}

	makespan := func(recs []Record) float64 {
		last := 0.0
		for _, r := range recs {
			if r.DoneMs > last {
				last = r.DoneMs
			}
		}
		return last
	}
	serial, batched := makespan(serialRecs), makespan(recs)
	if batched >= serial*0.8 {
		t.Fatalf("batched makespan %.2fms not materially below serial %.2fms", batched, serial)
	}
}

// TestBatchingCancelMidBatch: canceling a batch member while its batch is on
// the device sheds exactly that member at the block boundary; its batch-mate
// continues its plan and is delivered.
func TestBatchingCancelMidBatch(t *testing.T) {
	catalog := synthCatalog()
	// A 60ms "huge" head keeps the device busy while two split "long"
	// requests (3 blocks of 10ms) queue behind it and then batch together.
	// The batched block 0 runs 60 → 73.75ms; the cancel at 65ms lands while
	// request 2 shares that grant.
	arrivals := []workload.Arrival{
		{ID: 0, Model: "huge", AtMs: 0},
		{ID: 1, Model: "long", AtMs: 0.5},
		{ID: 2, Model: "long", AtMs: 1, CancelAtMs: 65},
	}
	tr := trace.New()
	s := &Split{Config: Config{Alpha: 4, BatchMax: 3}} // elastic off: both longs keep their split plan
	recs := s.Run(arrivals, catalog, tr)
	if len(recs) != len(arrivals) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
	}
	byID := map[int]Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if byID[2].Outcome != OutcomeCanceled {
		t.Fatalf("canceled batch member outcome %q, want canceled", byID[2].Outcome)
	}
	if !byID[0].Served() || !byID[1].Served() {
		t.Fatalf("batch-mates not delivered: %q / %q", byID[0].Outcome, byID[1].Outcome)
	}
	// The cancel must have landed while req 2 shared the device grant, not
	// while it was queued.
	foundInflightCancel := false
	for _, e := range tr.Events() {
		if e.Kind == trace.Cancel && e.ReqID == 2 {
			if e.Detail != "inflight" {
				t.Fatalf("cancel detail %q, want inflight", e.Detail)
			}
			foundInflightCancel = true
		}
	}
	if !foundInflightCancel {
		t.Fatal("cancel did not route to the executing batch member")
	}
}

// TestElasticInflightSimBoundary pins the S1 fix end to end in the fleet
// simulator: the same-type run an arrival joins includes the request
// occupying its placed device, so with SameTypeLimit=3 the third pending
// same-type request — two queued plus one in flight — already arrives
// unsplit. Checked on one device and on a two-device round-robin fleet,
// where each device's run is counted independently.
func TestElasticInflightSimBoundary(t *testing.T) {
	catalog := synthCatalog()
	elastic := sched.Elastic{Enabled: true, SameTypeLimit: 3}
	// "long" has a 3-block split plan; block counts land in the Arrive
	// event detail, so the trace tells us which arrivals were suppressed.
	arriveBlocks := func(devices int, n int) map[int]string {
		var arrivals []workload.Arrival
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, workload.Arrival{ID: i, Model: "long", AtMs: float64(i)})
		}
		tr := trace.New()
		s := &Split{Config: Config{Alpha: 4, Elastic: elastic, Devices: devices}}
		s.Run(arrivals, catalog, tr)
		got := map[int]string{}
		for _, e := range tr.Events() {
			if e.Kind == trace.Arrive {
				for _, f := range strings.Fields(e.Detail) {
					if strings.HasPrefix(f, "blocks=") {
						got[e.ReqID] = f
					}
				}
			}
		}
		return got
	}

	// One device: id 0 is in flight while ids 1-3 arrive during its first
	// block. Id 3 sees two queued "long"s plus the in-flight one — a run at
	// the limit — and arrives unsplit; id 2 (run of 2) still splits. The
	// pre-fix queue-only count needed three *waiting* requests, so id 3
	// would have kept its split plan.
	got := arriveBlocks(1, 4)
	want := map[int]string{0: "blocks=3", 1: "blocks=3", 2: "blocks=3", 3: "blocks=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single device suppression boundary: got %v, want %v", got, want)
	}

	// Two devices, round-robin: even ids land on device 0, odd on device 1.
	// Id 6 is the third "long" pending on device 0 (id 0 in flight, ids 2
	// and 4 queued), so it is the first suppressed arrival; id 4 still
	// splits.
	got = arriveBlocks(2, 7)
	if got[4] != "blocks=3" || got[6] != "blocks=1" {
		t.Fatalf("fleet suppression boundary: got %v, want id4 split and id6 unsplit", got)
	}
}
