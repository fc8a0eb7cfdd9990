package serve

import (
	"net"
	"testing"

	"split/internal/gpusim"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
)

// TestOptionsAssembleConfig: every functional option must land on the
// corresponding config field.
func TestOptionsAssembleConfig(t *testing.T) {
	faults := &gpusim.FaultInjector{Seed: 3, FailProb: 0.1, MaxRetries: 1}
	ring := trace.NewRing(16)
	elastic := sched.Elastic{Enabled: true, HighLoadQueueLen: 7}
	srv, err := New(lifecycleCatalog(),
		WithAlpha(6),
		WithElastic(elastic),
		WithTimeScale(0.5),
		WithMaxQueue(12),
		WithQoSWindow(32),
		WithDeadlines(0),
		WithPredictiveShed(true),
		WithFaults(faults),
		WithSink(ring),
		WithDevices(3),
		WithPlacement(place.Affinity),
		nil, // nil options are tolerated
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := srv.cfg
	if cfg.Alpha != 6 || cfg.TimeScale != 0.5 || cfg.MaxQueue != 12 || cfg.QoSWindow != 32 {
		t.Errorf("scalar options lost: %+v", cfg)
	}
	if !cfg.EnforceDeadlines || !cfg.PredictiveShed {
		t.Error("deadline options lost")
	}
	if cfg.Elastic != elastic || cfg.Faults != faults || cfg.Sink != trace.Sink(ring) {
		t.Error("struct options lost")
	}
	if cfg.Devices != 3 || cfg.Placement != place.Affinity || srv.eng.Lanes() != 3 {
		t.Errorf("fleet options lost: devices=%d placement=%q", cfg.Devices, cfg.Placement)
	}
	if srv.eng.Placer().Name() != place.Affinity {
		t.Errorf("placer is %q", srv.eng.Placer().Name())
	}
}

// TestOptionsValidation: unknown placements and empty catalogs fail fast.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(lifecycleCatalog(), WithPlacement("nope")); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("empty catalog accepted")
	}
	if srv, err := New(lifecycleCatalog(), WithDeadlines(5)); err != nil || srv.cfg.Alpha != 5 || !srv.cfg.EnforceDeadlines {
		t.Errorf("WithDeadlines(5): err=%v cfg=%+v", err, srv.cfg)
	}
}

// TestOptionsServerServes: an option-built fleet server actually serves.
func TestOptionsServerServes(t *testing.T) {
	srv, err := New(lifecycleCatalog(), WithDevices(2), WithPlacement(place.RoundRobin))
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
	defer srv.Stop()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Infer("quick")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "quick" {
		t.Errorf("reply %+v", reply)
	}
}
