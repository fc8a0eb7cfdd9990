package serve

import (
	"math"
	"testing"

	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// TestSimServeSpanParity is the span acceptance criterion: the same
// request schedule run through the discrete-event simulator and through
// the real-time serving path folds into span trees that agree on each
// request's wait/exec decomposition — same outcomes, same block counts,
// same phase structure, and exec times matching to within wall-clock
// scheduling overhead. Both streams must fold with zero invariant
// problems; the decomposition identity holds exactly on each side.
func TestSimServeSpanParity(t *testing.T) {
	// The TestSimServeParity schedule: five "work" requests (3 x 20 ms
	// blocks), arriving together, with deadlines that serve reqs 0/3/4,
	// shed req 1 after one block, and expire req 2 queued.
	deadlines := []float64{1000, 70, 30, 1000, 500}

	// Discrete-event side.
	arrivals := make([]workload.Arrival, len(deadlines))
	for i, d := range deadlines {
		arrivals[i] = workload.Arrival{ID: i, Model: "work", AtMs: float64(i), DeadlineMs: d}
	}
	simTr := trace.New()
	(&policy.Split{Config: policy.Config{Alpha: 4}}).Run(arrivals, lifecycleCatalog(), simTr)
	simTree := trace.BuildSpans(simTr.Events())
	if len(simTree.Problems) != 0 {
		t.Fatalf("sim span problems: %v", simTree.Problems)
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
	for _, ch := range chans {
		await(t, ch) // outcomes themselves are pinned by TestSimServeParity
	}
	srvTree := trace.BuildSpans(ring.Snapshot())
	if len(srvTree.Problems) != 0 {
		t.Fatalf("serve span problems: %v", srvTree.Problems)
	}

	for i := range deadlines {
		sim, srvSpan := simTree.Span(i), srvTree.Span(ids[i])
		if sim == nil || srvSpan == nil {
			t.Fatalf("req %d missing a span: sim=%v serve=%v", i, sim, srvSpan)
		}
		if sim.Outcome != srvSpan.Outcome {
			t.Errorf("req %d: sim outcome %q, serve %q", i, sim.Outcome, srvSpan.Outcome)
		}
		if sim.Blocks != srvSpan.Blocks {
			t.Errorf("req %d: sim blocks %d, serve %d", i, sim.Blocks, srvSpan.Blocks)
		}
		if sim.Preemptions != srvSpan.Preemptions {
			t.Errorf("req %d: sim preemptions %d, serve %d", i, sim.Preemptions, srvSpan.Preemptions)
		}
		// Decomposition identity holds exactly on both sides.
		for side, sp := range map[string]*trace.RequestSpan{"sim": sim, "serve": srvSpan} {
			if !sp.Decided() {
				t.Errorf("req %d: %s span undecided", i, side)
				continue
			}
			if got := sp.WaitMs + sp.ExecMs + sp.PreemptedMs; math.Abs(got-sp.E2EMs()) > 1e-6 {
				t.Errorf("req %d: %s decomposition %v != e2e %v", i, side, got, sp.E2EMs())
			}
		}
		// Phase structure agrees: a request that executed in the simulator
		// executed on the server, one that expired queued is pure wait on
		// both sides.
		if (sim.ExecMs > 0) != (srvSpan.ExecMs > 0) {
			t.Errorf("req %d: sim exec %v vs serve exec %v disagree on execution",
				i, sim.ExecMs, srvSpan.ExecMs)
		}
		// Exec parity: the server's device holds are real sleeps of the
		// simulated block durations, so serve exec matches sim exec up to
		// scheduler overhead — it can only overshoot, and a full extra
		// block (20 ms) of overshoot would mean a lost boundary.
		if srvSpan.ExecMs < sim.ExecMs-1e-6 || srvSpan.ExecMs > sim.ExecMs+19 {
			t.Errorf("req %d: serve exec %v outside [%v, %v+19]",
				i, srvSpan.ExecMs, sim.ExecMs, sim.ExecMs)
		}
	}
}
