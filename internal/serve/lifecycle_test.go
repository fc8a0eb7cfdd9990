package serve

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// lifecycleCatalog: "work" = 3 x 20 ms blocks (60 ms), "solo" = one 30 ms
// block, "quick" = one 1 ms block. Blocks are tens of milliseconds so that
// deadline margins dwarf wall-clock scheduling jitter.
func lifecycleCatalog() policy.Catalog {
	graphs := map[string]*model.Graph{
		"work": {
			Name: "work", Domain: "t", Class: model.Long,
			Ops: []model.Op{
				{Name: "a", TimeMs: 20}, {Name: "b", TimeMs: 20}, {Name: "c", TimeMs: 20},
			},
		},
		"solo": {
			Name: "solo", Domain: "t", Class: model.Long,
			Ops: []model.Op{{Name: "x", TimeMs: 30}},
		},
		"quick": {
			Name: "quick", Domain: "t", Class: model.Short,
			Ops: []model.Op{{Name: "x", TimeMs: 1}},
		},
	}
	plans := map[string]*model.SplitPlan{
		"work": {Model: "work", Cuts: []int{1, 2}, BlockTimesMs: []float64{20, 20, 20}},
	}
	return policy.NewCatalog(graphs, plans)
}

// startLifecycle boots an instrumented server on the lifecycle catalog;
// opts apply after the instrumented defaults.
func startLifecycle(t *testing.T, opts ...Option) (*Server, *obs.Registry, *trace.Ring) {
	t.Helper()
	reg := obs.NewRegistry()
	ring := trace.NewRing(1024)
	defaults := []Option{WithAlpha(4), WithTimeScale(1), WithObs(reg), WithSink(ring)}
	srv, err := New(lifecycleCatalog(), append(defaults, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, reg, ring
}

// await reads an outcome with a hang guard.
func await(t *testing.T, ch chan outcome) outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("no outcome within 10s")
		return outcome{}
	}
}

// waitBusy polls until the executor is running a block.
func waitBusy(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if srv.QueueSnapshot().Busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("executor never became busy")
}

// startBlocks counts StartBlock events for one request in the ring.
func startBlocks(ring *trace.Ring, id int) int {
	n := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.StartBlock && e.ReqID == id {
			n++
		}
	}
	return n
}

func dropCount(reg *obs.Registry, reason string) int64 {
	return reg.Counter(obs.MetricDropsTotal, "", "reason", reason).Value()
}

// TestExpiredQueuedNeverRunsBlock pins the tentpole invariant: a request
// whose deadline passes while it waits is shed at the next block boundary
// and never occupies the device.
func TestExpiredQueuedNeverRunsBlock(t *testing.T) {
	srv, reg, ring := startLifecycle(t)
	_, blocker, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	victimID, victim, err := srv.enqueue("work", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, victim)
	if !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("victim outcome: %v", out.err)
	}
	if out.req != nil {
		t.Error("shed request delivered a completion")
	}
	if n := startBlocks(ring, victimID); n != 0 {
		t.Errorf("expired request ran %d blocks", n)
	}
	if got := dropCount(reg, DropDeadline); got != 1 {
		t.Errorf("deadline drops = %d, want 1", got)
	}
	var shedSeen bool
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Shed && e.ReqID == victimID && e.Detail == DropDeadline {
			shedSeen = true
		}
	}
	if !shedSeen {
		t.Error("no shed event for the expired request")
	}
	if out := await(t, blocker); out.err != nil {
		t.Errorf("blocker failed: %v", out.err)
	}
}

// TestInflightDeadlineShedAtBoundary: a request whose deadline passes while
// it executes is stopped at the next block boundary, not run to completion.
func TestInflightDeadlineShedAtBoundary(t *testing.T) {
	srv, _, ring := startLifecycle(t)
	// Deadline 30 ms into a 3x20 ms plan: block 0 ends ~20 (alive), block 1
	// ends ~40 (past deadline) — shed there, block 2 must never run.
	id, ch, err := srv.enqueue("work", 30)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("outcome: %v", out.err)
	}
	if n := startBlocks(ring, id); n == 0 || n >= 3 {
		t.Errorf("expired in-flight request ran %d blocks, want 1..2", n)
	}
}

// TestPredictiveShed: with predictive shedding, a request that can no
// longer meet its deadline is shed before wasting any device time.
func TestPredictiveShed(t *testing.T) {
	srv, _, ring := startLifecycle(t, WithPredictiveShed(true))
	// 60 ms of work against a 30 ms deadline: doomed on arrival.
	id, ch, err := srv.enqueue("work", 30)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("outcome: %v", out.err)
	}
	if n := startBlocks(ring, id); n != 0 {
		t.Errorf("doomed request ran %d blocks", n)
	}
}

// TestEnforceDeadlinesDerivesAlphaTarget: with EnforceDeadlines and no RPC
// override, the deadline is α·t_ext after arrival (the paper's QoS target).
func TestEnforceDeadlinesDerivesAlphaTarget(t *testing.T) {
	// Target 0.5·60 = 30 ms: unmeetable for 60 ms of work.
	srv, _, _ := startLifecycle(t, WithDeadlines(0.5))
	_, ch, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := await(t, ch); !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("outcome: %v", out.err)
	}
}

func TestCancelQueuedAndUnknown(t *testing.T) {
	srv, reg, _ := startLifecycle(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	b, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(b); err != nil || st != CancelQueued {
		t.Fatalf("cancel queued: %v %v", st, err)
	}
	if _, err := c.Wait(b); err == nil || !errContains(err, "canceled") {
		t.Errorf("canceled wait error: %v", err)
	}
	if st, err := c.Cancel(b); err != nil || st != CancelUnknown {
		t.Errorf("second cancel: %v %v", st, err)
	}
	if st, err := c.Cancel(9999); err != nil || st != CancelUnknown {
		t.Errorf("unknown cancel: %v %v", st, err)
	}
	if _, err := c.Wait(a); err != nil {
		t.Errorf("uncanceled request failed: %v", err)
	}
	if got := dropCount(reg, DropCanceled); got != 1 {
		t.Errorf("canceled drops = %d, want 1", got)
	}
}

func TestCancelInflightStopsAtBoundary(t *testing.T) {
	srv, _, ring := startLifecycle(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	st, err := c.Cancel(id)
	if err != nil || st != CancelInflight {
		t.Fatalf("cancel inflight: %v %v", st, err)
	}
	if _, err := c.Wait(id); err == nil || !errContains(err, "canceled") {
		t.Fatalf("canceled wait error: %v", err)
	}
	if n := startBlocks(ring, id); n >= 3 {
		t.Errorf("canceled request ran all %d blocks", n)
	}
	var cancelSeen bool
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Cancel && e.ReqID == id {
			cancelSeen = true
		}
	}
	if !cancelSeen {
		t.Error("no cancel event in the ring")
	}
}

// TestConnLossCancelsOrphans: requests submitted on a connection that drops
// are canceled rather than left occupying the queue and device.
func TestConnLossCancelsOrphans(t *testing.T) {
	srv, reg, _ := startLifecycle(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("work", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("work", 0); err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for dropCount(reg, DropCanceled) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := dropCount(reg, DropCanceled); got != 2 {
		t.Fatalf("canceled drops after connection loss = %d, want 2", got)
	}
	if snap := srv.QueueSnapshot(); snap.Depth != 0 {
		t.Errorf("orphaned work still queued: depth=%d", snap.Depth)
	}
}

// TestStopDeliversInflightCompletion pins the shutdown bugfix: a request
// whose final block completes during Stop is delivered to its client, not
// failed with a closed channel.
func TestStopDeliversInflightCompletion(t *testing.T) {
	srv, _, _ := startLifecycle(t)
	_, ch, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	srv.Stop()
	out := await(t, ch)
	if out.err != nil {
		t.Fatalf("completion lost in shutdown: %v", out.err)
	}
	if out.req == nil || out.req.Model != "solo" || !out.req.Finished() {
		t.Errorf("delivered request: %+v", out.req)
	}
	if h := srv.Health(); h.Served != 1 {
		t.Errorf("served = %d, want 1", h.Served)
	}
}

// TestStopShedsQueuedWork: Stop fails queued waiters with ErrStopped
// instead of leaving them hanging.
func TestStopShedsQueuedWork(t *testing.T) {
	srv, reg, _ := startLifecycle(t)
	_, inflight, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	_, queued, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if out := await(t, queued); !errors.Is(out.err, ErrStopped) {
		t.Errorf("queued outcome: %v", out.err)
	}
	if out := await(t, inflight); out.err != nil {
		t.Errorf("in-flight outcome: %v", out.err)
	}
	if got := dropCount(reg, DropStopped); got != 1 {
		t.Errorf("stopped drops = %d, want 1", got)
	}
}

// TestDrainCompletesBacklog: a drain with enough budget finishes every
// queued request and delivers every completion.
func TestDrainCompletesBacklog(t *testing.T) {
	srv, _, ring := startLifecycle(t)
	var chans []chan outcome
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if shed := srv.Drain(10 * time.Second); shed != 0 {
		t.Fatalf("clean drain shed %d requests", shed)
	}
	for i, ch := range chans {
		if out := await(t, ch); out.err != nil || out.req == nil {
			t.Errorf("request %d: %v", i, out.err)
		}
	}
	if h := srv.Health(); h.Status != "stopped" || h.Served != 3 {
		t.Errorf("health after drain = %+v", h)
	}
	var start, end bool
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case trace.DrainStart:
			start = true
		case trace.DrainEnd:
			end = true
		}
	}
	if !start || !end {
		t.Errorf("drain events: start=%v end=%v", start, end)
	}
}

// TestDrainTimeoutShedsRemainder: when the backlog outlives the drain
// budget, every still-queued request is shed with ErrDrained and the
// in-flight request is shed at its boundary; nothing hangs.
func TestDrainTimeoutShedsRemainder(t *testing.T) {
	srv, reg, _ := startLifecycle(t)
	var chans []chan outcome
	for i := 0; i < 4; i++ {
		_, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	waitBusy(t, srv)
	shed := srv.Drain(5 * time.Millisecond)
	if shed != 3 {
		t.Errorf("drain shed %d queued requests, want 3", shed)
	}
	drained := 0
	for _, ch := range chans {
		out := await(t, ch)
		if out.err == nil {
			continue // the in-flight request may legitimately complete
		}
		if !errors.Is(out.err, ErrDrained) {
			t.Errorf("outcome: %v", out.err)
			continue
		}
		drained++
	}
	if drained < 3 {
		t.Errorf("%d requests drained, want >= 3", drained)
	}
	if got := dropCount(reg, DropDrained); int(got) != drained {
		t.Errorf("drained drops = %d, outcomes = %d", got, drained)
	}
}

// TestFaultRetryExhaustion: a block that keeps failing is retried within
// the budget, then the request is shed as a device fault.
func TestFaultRetryExhaustion(t *testing.T) {
	srv, reg, ring := startLifecycle(t, WithFaults(&gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 2}))
	id, ch, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if !errors.Is(out.err, ErrDeviceFault) {
		t.Fatalf("outcome: %v", out.err)
	}
	if got := reg.Counter(obs.MetricBlockRetries, "").Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := dropCount(reg, DropDeviceFault); got != 1 {
		t.Errorf("device_fault drops = %d, want 1", got)
	}
	faults := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Fault && e.ReqID == id {
			faults++
		}
	}
	if faults != 3 { // two transient retries + one terminal
		t.Errorf("fault events = %d, want 3", faults)
	}
}

// TestFaultSpikeStretchesBlock: a latency spike multiplies the block's
// device time but the request still completes.
func TestFaultSpikeStretchesBlock(t *testing.T) {
	srv, _, _ := startLifecycle(t, WithFaults(&gpusim.FaultInjector{Seed: 1, SpikeProb: 1, SpikeFactor: 5}))
	_, ch, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if out.err != nil {
		t.Fatal(out.err)
	}
	// The 1 ms block held the device 5 ms; e2e is at least that.
	if e2e := out.req.E2EMs(); e2e < 5 {
		t.Errorf("e2e = %v ms, want >= 5 (spiked)", e2e)
	}
}

// TestSimServeParity is the acceptance criterion: the discrete-event
// simulator and the real-time serving path, given the same request
// schedule, make the same shed decisions — same served set, same shed
// reasons, same block counts for the mid-flight shed.
func TestSimServeParity(t *testing.T) {
	// Five same-model requests arriving (virtually) together; the plan is
	// 3 x 20 ms. FIFO execution gives block boundaries at 20/40/60/80...:
	// req 0 (no deadline pressure) runs 0-60; req 1 (deadline ~71) is
	// granted at 60 and shed at its first boundary ~80; req 2 (deadline
	// ~32) expires queued and never runs; reqs 3 and 4 are served. Every
	// decision has >= 9 virtual ms of margin against wall-clock jitter.
	deadlines := []float64{1000, 70, 30, 1000, 500}
	wantOutcome := map[int]string{
		0: policy.OutcomeServed,
		1: policy.OutcomeDeadline,
		2: policy.OutcomeDeadline,
		3: policy.OutcomeServed,
		4: policy.OutcomeServed,
	}
	wantBlocks := map[int]int{0: 3, 1: 1, 2: 0, 3: 3, 4: 3}

	// Discrete-event side.
	arrivals := make([]workload.Arrival, len(deadlines))
	for i, d := range deadlines {
		arrivals[i] = workload.Arrival{ID: i, Model: "work", AtMs: float64(i), DeadlineMs: d}
	}
	tr := trace.New()
	sys := &policy.Split{Config: policy.Config{Alpha: 4}}
	recs := sys.Run(arrivals, lifecycleCatalog(), tr)
	if len(recs) != len(deadlines) {
		t.Fatalf("sim reported %d records", len(recs))
	}
	simBlocks := map[int]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.StartBlock {
			simBlocks[e.ReqID]++
		}
	}
	for _, r := range recs {
		if r.Outcome != wantOutcome[r.ID] {
			t.Errorf("sim outcome[%d] = %q, want %q", r.ID, r.Outcome, wantOutcome[r.ID])
		}
		if simBlocks[r.ID] != wantBlocks[r.ID] {
			t.Errorf("sim blocks[%d] = %d, want %d", r.ID, simBlocks[r.ID], wantBlocks[r.ID])
		}
	}

	// Real-time side: same schedule, deadlines supplied per request.
	srv, _, ring := startLifecycle(t)
	ids := make([]int, len(deadlines))
	chans := make([]chan outcome, len(deadlines))
	for i, d := range deadlines {
		id, ch, err := srv.enqueue("work", d)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], chans[i] = id, ch
	}
	for i, ch := range chans {
		out := await(t, ch)
		got := policy.OutcomeServed
		if out.err != nil {
			if !errors.Is(out.err, ErrDeadlineExceeded) {
				t.Fatalf("serve outcome[%d]: unexpected error %v", i, out.err)
			}
			got = policy.OutcomeDeadline
		}
		if got != wantOutcome[i] {
			t.Errorf("serve outcome[%d] = %q, want %q (sim parity broken)", i, got, wantOutcome[i])
		}
	}
	for i, id := range ids {
		if n := startBlocks(ring, id); n != wantBlocks[i] {
			t.Errorf("serve blocks[%d] = %d, want %d (sim parity broken)", i, n, wantBlocks[i])
		}
	}
}

func errContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}
