package serve

import (
	"strings"
	"testing"

	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// TestServePartitionConcurrency: two single-block requests on the two
// partition lanes of one device must execute concurrently — each stretched
// by the efficiency curve, neither waiting for the other — and the run
// must export the gated split_partition_* families with Part-tagged block
// events. An unpartitioned server must export none of them.
func TestServePartitionConcurrency(t *testing.T) {
	srv, reg, ring := startLifecycle(t,
		WithPartitions(2),
		WithPartitionWidth(place.WidthFixed),
		WithPlacement(place.RoundRobin),
	)
	var chans []chan outcome
	for i := 0; i < 2; i++ {
		_, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		out := await(t, ch)
		if out.err != nil {
			t.Fatalf("req %d: %v", i, out.err)
		}
		// solo is 30 ms at full width, ~42.4 ms at fraction 1/2 under the
		// default Beta=0.5 curve. Serial execution would make the second
		// request wait ~42 ms; concurrent lanes wait only scheduler overhead.
		if wait := out.req.E2EMs() - out.req.ExtMs; wait > 25 {
			t.Errorf("req %d waited %.1f virtual ms — partitions are serializing", i, wait)
		}
		if out.req.Partition != i {
			t.Errorf("req %d served on partition %d", i, out.req.Partition)
		}
	}
	parts := map[int]bool{}
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.StartBlock {
			parts[e.Part] = true
		}
	}
	if !parts[0] || !parts[1] {
		t.Errorf("StartBlock events cover partitions %v, want both 0 and 1", parts)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), obs.MetricPartitionBusyMs) ||
		!strings.Contains(sb.String(), obs.MetricPartitionBlocks) {
		t.Error("partitioned server missing split_partition_* families")
	}
	blocks := int64(0)
	for _, p := range []string{"0", "1"} {
		blocks += reg.Counter(obs.MetricPartitionBlocks, "", "device", "0", "part", p).Value()
	}
	if blocks != 2 {
		t.Errorf("per-partition block counters sum to %d, want 2", blocks)
	}

	// Unpartitioned servers keep the pre-partition metric surface.
	single, reg1, _ := startLifecycle(t)
	if _, ch, err := single.enqueue("quick", 0); err != nil {
		t.Fatal(err)
	} else if out := await(t, ch); out.err != nil {
		t.Fatal(out.err)
	}
	var sb1 strings.Builder
	if err := reg1.WritePrometheus(&sb1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb1.String(), "split_partition_") {
		t.Error("unpartitioned server exported split_partition_* families")
	}
}

// TestSimServePartitionParity: the same schedule on a 2-partition device
// through the simulator and the serving path must agree on outcomes, lane
// assignment, and exec durations (serve can only overshoot by scheduler
// overhead). Fixed width makes the granted fraction — and therefore the
// stretched block time — deterministic on both sides.
func TestSimServePartitionParity(t *testing.T) {
	const n = 4
	arrivals := make([]workload.Arrival, n)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{ID: i, Model: "solo", AtMs: float64(i)}
	}
	simTr := trace.New()
	(&policy.Split{Config: policy.Config{Alpha: 4, Devices: 1, Placement: place.RoundRobin,
		Partitions: 2, PartitionWidth: place.WidthFixed}}).Run(arrivals, lifecycleCatalog(), simTr)
	simTree := trace.BuildSpans(simTr.Events())
	if len(simTree.Problems) != 0 {
		t.Fatalf("sim span problems: %v", simTree.Problems)
	}

	srv, _, ring := startLifecycle(t,
		WithPartitions(2),
		WithPartitionWidth(place.WidthFixed),
		WithPlacement(place.RoundRobin),
	)
	ids := make([]int, n)
	chans := make([]chan outcome, n)
	for i := 0; i < n; i++ {
		id, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], chans[i] = id, ch
	}
	for _, ch := range chans {
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
	}
	srvTree := trace.BuildSpans(ring.Snapshot())
	if len(srvTree.Problems) != 0 {
		t.Fatalf("serve span problems: %v", srvTree.Problems)
	}

	simSpans, srvSpans := simTr.Spans(), traceSpansOf(ring.Snapshot())
	if len(simSpans) != n || len(srvSpans) != n {
		t.Fatalf("span counts: sim %d serve %d, want %d", len(simSpans), len(srvSpans), n)
	}
	simByReq := map[int]trace.Span{}
	for _, sp := range simSpans {
		simByReq[sp.ReqID] = sp
	}
	srvByReq := map[int]trace.Span{}
	for _, sp := range srvSpans {
		srvByReq[sp.ReqID] = sp
	}
	for i := 0; i < n; i++ {
		sim, srvSp := simByReq[i], srvByReq[ids[i]]
		if sim.Part != srvSp.Part {
			t.Errorf("req %d: sim lane %d, serve lane %d", i, sim.Part, srvSp.Part)
		}
		simExec := sim.EndMs - sim.StartMs
		srvExec := srvSp.EndMs - srvSp.StartMs
		// Both sides stretch the 30 ms block to 30/eff(0.5) ~ 42.4 ms; the
		// serving side sleeps that long in wall clock, plus overhead.
		if srvExec < simExec-1e-6 || srvExec > simExec+19 {
			t.Errorf("req %d: serve exec %.2f outside [%.2f, %.2f+19]", i, srvExec, simExec, simExec)
		}
	}
}

// traceSpansOf pairs StartBlock/EndBlock events from a raw event slice the
// same way Tracer.Spans does.
func traceSpansOf(events []trace.Event) []trace.Span {
	tr := trace.New()
	for _, e := range events {
		tr.Record(e)
	}
	return tr.Spans()
}

// TestServeScaleInThenBurst is the serving-path half of the affinity
// re-homing regression: after a device leaves the active set, its evicted
// models must re-home onto the least-loaded survivor, not pile onto the
// fewest-warm one that is currently drowning in the drained backlog.
func TestServeScaleInThenBurst(t *testing.T) {
	srv, _, _ := startLifecycle(t,
		WithDevices(3),
		WithPlacement(place.Affinity),
	)
	// Home one model per device: first sightings claim fewest-warm in ID
	// order.
	for i, m := range []string{"work", "solo", "quick"} {
		_, ch, err := srv.enqueue(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := await(t, ch)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.req.Device != i {
			t.Fatalf("model %s homed on device %d, want %d", m, out.req.Device, i)
		}
	}
	// Scale device 2 out of the active set: its home ("quick") is evicted.
	srv.mu.Lock()
	srv.eng.SetActive(2)
	srv.mu.Unlock()
	// Pile backlog onto device 0 so the survivors' loads diverge.
	var chans []chan outcome
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// The evicted model's next arrival must re-home to device 1 — the
	// least-loaded survivor — not device 0 (the fewest-warm tie-break
	// would have picked 0 before the re-homing fix).
	_, ch, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.req.Device != 1 {
		t.Errorf("evicted model re-homed to device %d, want least-loaded survivor 1", out.req.Device)
	}
	// And it sticks: the re-homed device is the model's new home.
	_, ch2, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out2 := await(t, ch2)
	if out2.err != nil {
		t.Fatal(out2.err)
	}
	if out2.req.Device != 1 {
		t.Errorf("re-homed model moved again to device %d", out2.req.Device)
	}
	for _, ch := range chans {
		await(t, ch)
	}
}
