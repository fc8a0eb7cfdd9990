package serve

import (
	"errors"
	"net"
	"testing"
	"time"

	"split/internal/gpusim"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// terminalFaults fails every attempt and allows no retry: the first
// attempt of every block is also its last.
func terminalFaults() *gpusim.FaultInjector {
	return &gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 0}
}

// startTerminalFaults boots a server whose every block attempt fails
// terminally; batchMax > 1 enables micro-batching.
func startTerminalFaults(t *testing.T, batchMax int) (*Server, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(256)
	srv, err := New(lifecycleCatalog(), WithAlpha(4), WithTimeScale(2),
		WithFaults(terminalFaults()), WithBatching(batchMax), WithSink(ring))
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
	return srv, ring
}

// waitStarted polls the ring until request id has started a block.
func waitStarted(t *testing.T, ring *trace.Ring, id int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if startBlocks(ring, id) > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("request %d never started a block", id)
}

// TestTerminalFaultBeatsCancel: a request canceled during the last allowed
// attempt of a failing block is shed as a device fault — the block's fate
// is decided by the fault, exactly as the simulator records it.
func TestTerminalFaultBeatsCancel(t *testing.T) {
	sim := policy.NewSplit()
	sim.Faults = terminalFaults()
	recs := sim.Run([]workload.Arrival{{ID: 0, Model: "solo", CancelAtMs: 10}}, lifecycleCatalog(), nil)
	if recs[0].Outcome != policy.OutcomeDeviceFault {
		t.Fatalf("sim outcome %q, want %q", recs[0].Outcome, policy.OutcomeDeviceFault)
	}

	srv, ring := startTerminalFaults(t, 1)
	id, ch, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, ring, id)
	if st := srv.Cancel(id); st != CancelInflight {
		t.Fatalf("cancel found %q, want %q", st, CancelInflight)
	}
	if out := await(t, ch); !errors.Is(out.err, ErrDeviceFault) {
		t.Fatalf("serve outcome %v, want %v (the simulator records %s)", out.err, ErrDeviceFault, policy.OutcomeDeviceFault)
	}
}

// TestTerminalFaultBeatsCancelBatchMember: a terminal fault takes the
// whole micro-batch down as device faults, including a member canceled
// while the batch held the device.
func TestTerminalFaultBeatsCancelBatchMember(t *testing.T) {
	srv, ring := startTerminalFaults(t, 2)
	// The blocker holds the device while the two batch members queue up
	// behind it at the same block boundary.
	_, blocker, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	keepID, keep, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	cancelID, canceled, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := await(t, blocker); !errors.Is(out.err, ErrDeviceFault) {
		t.Fatalf("blocker outcome %v, want %v", out.err, ErrDeviceFault)
	}
	waitStarted(t, ring, cancelID)
	if n := startBlocks(ring, keepID); n != 1 {
		t.Fatalf("batch-mate started %d blocks, want 1 (batched with the canceled member)", n)
	}
	if st := srv.Cancel(cancelID); st != CancelInflight {
		t.Fatalf("cancel found %q, want %q", st, CancelInflight)
	}
	for _, ch := range []chan outcome{keep, canceled} {
		if out := await(t, ch); !errors.Is(out.err, ErrDeviceFault) {
			t.Fatalf("batch member outcome %v, want %v", out.err, ErrDeviceFault)
		}
	}
}
