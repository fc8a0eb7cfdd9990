package split

import (
	"math"
	"net"
	"path/filepath"
	"testing"
)

func TestLoadModelAndModels(t *testing.T) {
	names := Models()
	if len(names) != 10 {
		t.Fatalf("%d models", len(names))
	}
	for _, n := range names {
		g, err := LoadModel(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := LoadModel("bogus"); err == nil {
		t.Error("bogus model loaded")
	}
}

func TestBenchmarkModels(t *testing.T) {
	bm := BenchmarkModels()
	if len(bm) != 5 {
		t.Fatalf("%d benchmark models", len(bm))
	}
	// Returned slice must be a copy.
	bm[0] = "tampered"
	if BenchmarkModels()[0] == "tampered" {
		t.Error("BenchmarkModels aliases internal state")
	}
}

func TestSplitModelFacade(t *testing.T) {
	g, err := LoadModel("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SplitModel(g, 2, DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBlocks() != 2 {
		t.Errorf("blocks = %d", plan.NumBlocks())
	}
	if plan.StdDevMs > 1 {
		t.Errorf("GA plan std dev %v suspiciously high", plan.StdDevMs)
	}
}

func TestSplitModelGAWithTelemetry(t *testing.T) {
	g, err := LoadModel("vgg19")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGAConfig(3)
	cfg.Generations = 10
	cfg.StallLimit = 10
	plan, res, err := SplitModelGA(g, DefaultCost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBlocks() != 3 || len(res.PerGeneration) == 0 {
		t.Errorf("plan=%+v gens=%d", plan, len(res.PerGeneration))
	}
}

func TestUnsplitPlanAndExpectedWait(t *testing.T) {
	g, _ := LoadModel("yolov2")
	p := UnsplitPlan(g)
	if p.NumBlocks() != 1 {
		t.Errorf("blocks = %d", p.NumBlocks())
	}
	w := ExpectedWait(p.BlockTimesMs)
	if math.Abs(w-g.TotalTimeMs()/2) > 1e-9 {
		t.Errorf("expected wait %v, want T/2", w)
	}
}

func TestDeployAndRunScenario(t *testing.T) {
	dep, err := Deploy()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()
	if len(scenarios) != 6 {
		t.Fatalf("%d scenarios", len(scenarios))
	}
	sys, err := NewSystem("SPLIT")
	if err != nil {
		t.Fatal(err)
	}
	run := dep.RunScenario(scenarios[0], sys, 1, nil)
	if run.Summary.Requests != 1000 {
		t.Errorf("requests = %d", run.Summary.Requests)
	}
	if v := ViolationRate(run.Records, 4); v > 0.2 {
		t.Errorf("SPLIT violation at α=4 = %v", v)
	}
	j := JitterByModel(run.Records)
	if len(j) != 5 {
		t.Errorf("jitter models = %d", len(j))
	}
	sum := Summarize("SPLIT", run.Records)
	if sum.Requests != 1000 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestScenarioWorkloadFacade(t *testing.T) {
	arrivals, err := ScenarioWorkload(Scenarios()[0], BenchmarkModels(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1000 {
		t.Errorf("arrivals = %d", len(arrivals))
	}
}

func TestGenerateWorkloadFacade(t *testing.T) {
	arrivals, err := GenerateWorkload(WorkloadConfig{
		Models:         []string{"yolov2"},
		MeanIntervalMs: 100,
		Count:          10,
		Seed:           1,
	})
	if err != nil || len(arrivals) != 10 {
		t.Errorf("got %d arrivals, err %v", len(arrivals), err)
	}
	if _, err := GenerateWorkload(WorkloadConfig{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestNewSystemUnknown(t *testing.T) {
	if _, err := NewSystem("Whatever"); err == nil {
		t.Error("unknown system constructed")
	}
}

func TestDefaultSystemsOrder(t *testing.T) {
	systems := DefaultSystems()
	want := []string{"SPLIT", "ClockWork", "PREMA", "RT-A"}
	if len(systems) != len(want) {
		t.Fatalf("%d systems", len(systems))
	}
	for i, s := range systems {
		if s.Name() != want[i] {
			t.Errorf("system %d = %q", i, s.Name())
		}
	}
}

func TestPlanPersistenceFacade(t *testing.T) {
	g, _ := LoadModel("googlenet")
	plan := UnsplitPlan(g)
	dir := t.TempDir()
	path := filepath.Join(dir, "googlenet.plan.json")
	if err := SavePlan(path, plan); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "googlenet" {
		t.Errorf("model = %q", got.Model)
	}
	gpath := filepath.Join(dir, "googlenet.graph.json")
	if err := SaveGraph(gpath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumOps() != g.NumOps() {
		t.Error("graph roundtrip lost ops")
	}
}

func TestServerFacadeEndToEnd(t *testing.T) {
	graphs := map[string]*Graph{"yolov2": mustLoad(t, "yolov2")}
	srv, err := NewServerWith(NewCatalog(graphs, nil), WithTimeScale(0.01))
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
	reply, err := c.Infer("yolov2")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "yolov2" || reply.E2EMs < 10.8 {
		t.Errorf("reply = %+v", reply)
	}
}

func TestTracerFacade(t *testing.T) {
	tr := NewTracer()
	dep, err := Deploy()
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := NewSystem("SPLIT")
	arrivals := []Arrival{{ID: 0, Model: "vgg19", AtMs: 0}}
	sys.Run(arrivals, dep.Catalog, tr)
	if tr.Len() == 0 {
		t.Error("tracer recorded nothing")
	}
}

func mustLoad(t *testing.T, name string) *Graph {
	t.Helper()
	g, err := LoadModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQueueingFacade(t *testing.T) {
	mix := BenchmarkServiceMix()
	if mix.MeanMs() < 20 || mix.MeanMs() > 40 {
		t.Errorf("mix mean = %v", mix.MeanMs())
	}
	q := AnalyzeQueue(50, mix)
	if !q.Stable() {
		t.Error("50 ms interval should be stable")
	}
	if q.MeanWaitMs() <= 0 {
		t.Errorf("wait = %v", q.MeanWaitMs())
	}
	if v := q.ViolationRateApprox(4); v <= 0 || v >= 1 {
		t.Errorf("violation approx = %v", v)
	}
}

func TestMMPPFacade(t *testing.T) {
	arrivals, err := GenerateMMPPWorkload(MMPPConfig{
		Models:         BenchmarkModels(),
		CalmIntervalMs: 80, BurstIntervalMs: 15,
		CalmDwellMs: 1000, BurstDwellMs: 300,
		Count: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 200 {
		t.Fatalf("count = %d", len(arrivals))
	}
	// The trace is runnable through a system.
	dep, err := Deploy()
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := NewSystem("SPLIT")
	recs := sys.Run(arrivals, dep.Catalog, nil)
	if len(recs) != 200 {
		t.Errorf("records = %d", len(recs))
	}
}
