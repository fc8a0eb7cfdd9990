package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// batchSizes extracts the ordered sizes of batched grants from a trace:
// StartBlock events grouped by batch id, in order of first appearance. The
// same extraction runs against simulator tracers and serving-path rings,
// which is what the parity test compares.
func batchSizes(events []trace.Event) []int {
	var order []int
	counts := map[int]int{}
	for _, e := range events {
		if e.Kind != trace.StartBlock || e.Batch == 0 {
			continue
		}
		if counts[e.Batch] == 0 {
			order = append(order, e.Batch)
		}
		counts[e.Batch]++
	}
	sizes := make([]int, len(order))
	for i, id := range order {
		sizes[i] = counts[id]
	}
	return sizes
}

// runBatchScenario serves the canonical batching scenario: a 30 ms "solo"
// blocker holds the device while three 1 ms "quick" requests queue behind it
// and (with BatchMax > 1) coalesce at the blocker's boundary. It returns the
// per-request errors in enqueue order, after every outcome arrived.
func runBatchScenario(t *testing.T, srv *Server) []error {
	t.Helper()
	_, blocker, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	chans := []chan outcome{blocker}
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("quick", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	errs := make([]error, len(chans))
	for i, ch := range chans {
		errs[i] = await(t, ch).err
	}
	return errs
}

// TestServeBatchingCoalesces: with BatchMax=3, a same-type run that queued
// behind a blocker executes as one batched grant — shared batch id on its
// block events, batch metrics registered and counted — and every member is
// delivered.
func TestServeBatchingCoalesces(t *testing.T) {
	srv, reg, ring := startLifecycle(t, WithBatching(3))
	for i, err := range runBatchScenario(t, srv) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	sizes := batchSizes(ring.Snapshot())
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batched grant sizes = %v, want [3]", sizes)
	}
	// Start and end events must pair up within the batch.
	starts, ends := 0, 0
	for _, e := range ring.Snapshot() {
		if e.Batch == 0 {
			continue
		}
		switch e.Kind {
		case trace.StartBlock:
			starts++
		case trace.EndBlock:
			ends++
		default:
			t.Fatalf("batch id on non-block event: %+v", e)
		}
	}
	if starts != 3 || ends != 3 {
		t.Fatalf("batched block events: %d starts / %d ends, want 3/3", starts, ends)
	}
	if got := reg.Counter(obs.MetricBatchedBlocks, "").Value(); got != 1 {
		t.Fatalf("split_batched_blocks_total = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), obs.MetricBatchSize) {
		t.Fatal("split_batch_size histogram not exported while batching is enabled")
	}
}

// TestServeBatchingDisabledKeepsSurface: with batching off (the default),
// the same scenario emits no batch ids and the /metrics output contains no
// split_batch families at all — the observability surface is unchanged.
func TestServeBatchingDisabledKeepsSurface(t *testing.T) {
	srv, reg, ring := startLifecycle(t)
	for i, err := range runBatchScenario(t, srv) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, e := range ring.Snapshot() {
		if e.Batch != 0 {
			t.Fatalf("unbatched server emitted batch id: %+v", e)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "split_batch") {
		t.Fatal("split_batch_* families exported with batching disabled")
	}
}

// TestSimServeBatchingParity is the acceptance check for the tentpole: the
// fleet simulator and the real-time serving path, driven by the identical
// sched.BatchPlanner, must form the same batches for the same workload —
// same grant sizes in the same order, same outcomes — at every BatchMax.
func TestSimServeBatchingParity(t *testing.T) {
	catalog := lifecycleCatalog()
	// The sim mirror of runBatchScenario: the blocker arrives on an idle
	// device, the quick run lands during its 30 ms block.
	arrivals := []workload.Arrival{
		{ID: 0, Model: "solo", AtMs: 0},
		{ID: 1, Model: "quick", AtMs: 1},
		{ID: 2, Model: "quick", AtMs: 2},
		{ID: 3, Model: "quick", AtMs: 3},
	}
	for _, batchMax := range []int{1, 2, 3} {
		tr := trace.New()
		sim := &policy.Split{Config: policy.Config{Alpha: 4, Elastic: sched.DefaultElastic(), BatchMax: batchMax}}
		recs := sim.Run(arrivals, catalog, tr)
		for _, r := range recs {
			if !r.Served() {
				t.Fatalf("BatchMax=%d: sim outcome %q for req %d", batchMax, r.Outcome, r.ID)
			}
		}

		srv, _, ring := startLifecycle(t, WithBatching(batchMax))
		for i, err := range runBatchScenario(t, srv) {
			if err != nil {
				t.Fatalf("BatchMax=%d: serve request %d: %v", batchMax, i, err)
			}
		}

		simSizes, srvSizes := batchSizes(tr.Events()), batchSizes(ring.Snapshot())
		// []int{} vs nil both mean "no batches".
		if len(simSizes) != len(srvSizes) {
			t.Fatalf("BatchMax=%d: sim batches %v, serve batches %v", batchMax, simSizes, srvSizes)
		}
		for i := range simSizes {
			if simSizes[i] != srvSizes[i] {
				t.Fatalf("BatchMax=%d: sim batches %v, serve batches %v", batchMax, simSizes, srvSizes)
			}
		}
		if batchMax > 1 && len(simSizes) == 0 {
			t.Fatalf("BatchMax=%d: no batches formed on either side", batchMax)
		}
		srv.Stop()
	}
}

// TestElasticInflightServeBoundary pins the S1 fix on the serving path: the
// §3.3 same-type run includes the request occupying the placed device, so
// with SameTypeLimit=2 the arrival that joins one queued plus one in-flight
// same-type request arrives unsplit. The queue-only count saw a single
// waiting request and — before the fix — kept splitting it.
func TestElasticInflightServeBoundary(t *testing.T) {
	srv, _, ring := startLifecycle(t, WithElastic(sched.Elastic{Enabled: true, SameTypeLimit: 2}))
	id0, ch0, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	id1, ch1, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, ch2, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan outcome{ch0, ch1, ch2} {
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
	}
	blocks := map[int]string{}
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Arrive {
			blocks[e.ReqID] = e.Detail
		}
	}
	if blocks[id0] != "blocks=3" || blocks[id1] != "blocks=3" {
		t.Fatalf("pre-boundary arrivals: %q / %q, want both split", blocks[id0], blocks[id1])
	}
	if blocks[id2] != "blocks=1" {
		t.Fatalf("arrival at the run limit got %q, want blocks=1 (suppressed)", blocks[id2])
	}
}

// TestShedsEnterRollingQoS pins the S4 fix: a deadline shed must enter the
// rolling QoS window (raising the live violation rate the way the offline
// harness counts sheds) without polluting the served-only jitter statistic.
func TestShedsEnterRollingQoS(t *testing.T) {
	srv, reg, _ := startLifecycle(t)
	_, blocker, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	// The victim's 1 ms deadline expires behind the 30 ms blocker; it is
	// swept at the boundary and never runs.
	_, victim, err := srv.enqueue("quick", 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := await(t, victim); out.err == nil {
		t.Fatal("victim not shed")
	}
	if out := await(t, blocker); out.err != nil {
		t.Fatal(out.err)
	}
	for i := 0; i < 2; i++ {
		_, ch, err := srv.enqueue("quick", 0)
		if err != nil {
			t.Fatal(err)
		}
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
	}
	qs := srv.qos.Snapshot()
	if qs.Window != 4 {
		t.Fatalf("window = %d, want 4 (3 served + 1 shed)", qs.Window)
	}
	if qs.ViolationRate != 0.25 {
		t.Fatalf("rolling violation rate %v, want 0.25 — the shed must count", qs.ViolationRate)
	}
	if got := reg.Gauge(obs.MetricViolationRate, "").Value(); got != 0.25 {
		t.Fatalf("violation-rate gauge %v, want 0.25", got)
	}
	// Served e2e values are ~30ms (blocker) and ~1ms (quicks); their spread
	// is bounded, and the shed's DoneMs stand-in must not be folded in.
	if math.IsNaN(qs.JitterMs) || qs.JitterMs > 30 {
		t.Fatalf("jitter %v looks polluted by the shed record", qs.JitterMs)
	}
}
