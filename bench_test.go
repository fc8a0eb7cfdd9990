// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark both
// measures the cost of the experiment and reports its headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the full
// reproduction harness.
package split

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"split/internal/analytic"
	"split/internal/core"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/sched"
	"split/internal/serve"
	"split/internal/workload"
	"split/internal/zoo"
)

// BenchmarkTable1Profiles regenerates Table 1: loading and profiling the
// five benchmark models.
func BenchmarkTable1Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Table1()
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig2CutPointGrid regenerates Figure 2: the exhaustive two-cut
// grid of ResNet50 (7260 candidates per iteration).
func BenchmarkFig2CutPointGrid(b *testing.B) {
	g := zoo.MustLoad("resnet50")
	p := profiler.New(g, model.DefaultCostModel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid := p.CutGrid(1)
		if len(grid.Overhead) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkEq1WaitingLatency measures the Eq. 1 closed form on the GA plan
// of VGG19 and reports the expected wait.
func BenchmarkEq1WaitingLatency(b *testing.B) {
	g := zoo.MustLoad("vgg19")
	p := profiler.New(g, model.DefaultCostModel())
	cand := p.Evaluate([]int{16, 29})
	var w float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w = analytic.ExpectedWait(cand.BlockTimesMs)
	}
	b.ReportMetric(w, "expected-wait-ms")
}

// BenchmarkFig5GAConvergence regenerates one Figure 5 series: the GA on
// VGG19 into 3 blocks, full generation telemetry.
func BenchmarkFig5GAConvergence(b *testing.B) {
	g := zoo.MustLoad("vgg19")
	p := profiler.New(g, model.DefaultCostModel())
	cfg := ga.DefaultConfig(3)
	cfg.StallLimit = cfg.Generations
	var gens int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := ga.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gens = len(res.PerGeneration)
	}
	b.ReportMetric(float64(gens), "generations")
}

// BenchmarkTable3OptimalSplits regenerates Table 3: GA splits of ResNet50
// and VGG19 at 2..4 blocks.
func BenchmarkTable3OptimalSplits(b *testing.B) {
	cm := model.DefaultCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.Table3(cm, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func deployOnce(b *testing.B) *core.Deployment {
	b.Helper()
	dep, err := core.DefaultPipeline().Deploy()
	if err != nil {
		b.Fatal(err)
	}
	return dep
}

// BenchmarkFig6ViolationRate regenerates Figure 6: all six scenarios
// through the four systems, reporting SPLIT's and RT-A's mean violation
// rate at α=4 (the paper's headline comparison).
func BenchmarkFig6ViolationRate(b *testing.B) {
	dep := deployOnce(b)
	var splitV, rtaV float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := core.Fig6(dep, core.DefaultSystems(), int64(i+1))
		splitV, rtaV = 0, 0
		for _, c := range cells {
			switch c.System {
			case "SPLIT":
				splitV += c.Curve[2] // α=4
			case "RT-A":
				rtaV += c.Curve[2]
			}
		}
		splitV /= 6
		rtaV /= 6
	}
	b.ReportMetric(splitV*100, "SPLIT-viol@4-%")
	b.ReportMetric(rtaV*100, "RT-A-viol@4-%")
}

// BenchmarkFig7Jitter regenerates Figure 7 and reports the mean short-model
// jitter of SPLIT and RT-A across scenarios.
func BenchmarkFig7Jitter(b *testing.B) {
	dep := deployOnce(b)
	var splitJ, rtaJ float64
	shorts := []string{"yolov2", "googlenet", "gpt2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := core.Fig7(dep, core.DefaultSystems(), int64(i+1))
		splitJ, rtaJ = 0, 0
		for _, c := range cells {
			var s float64
			for _, m := range shorts {
				s += c.JitterMs[m]
			}
			s /= float64(len(shorts))
			switch c.System {
			case "SPLIT":
				splitJ += s
			case "RT-A":
				rtaJ += s
			}
		}
		splitJ /= 6
		rtaJ /= 6
	}
	b.ReportMetric(splitJ, "SPLIT-short-jitter-ms")
	b.ReportMetric(rtaJ, "RT-A-short-jitter-ms")
}

// BenchmarkFig3FullVsPartial regenerates the Figure 3 comparison.
func BenchmarkFig3FullVsPartial(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Fig3(dep, int64(i+1))
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].FullMeanRR, "full-meanRR")
		b.ReportMetric(rows[len(rows)-1].PartMeanRR, "partial-meanRR")
	}
}

// BenchmarkTable2ScenarioRun measures one full scenario replay (Scenario 4,
// 1000 requests) under SPLIT.
func BenchmarkTable2ScenarioRun(b *testing.B) {
	dep := deployOnce(b)
	sc := workload.Table2()[3]
	sys := policy.NewSplit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := dep.RunScenario(sc, sys, int64(i+1), nil)
		if run.Summary.Requests != 1000 {
			b.Fatal("lost requests")
		}
	}
}

// BenchmarkAlgorithm1Preemption validates the §3.4 claim that greedy
// preemption runs at microsecond scale: one insertion into a queue of 64
// waiting requests.
func BenchmarkAlgorithm1Preemption(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	models := []string{"yolov2", "googlenet", "resnet50", "vgg19", "gpt2"}
	exts := []float64{10.8, 13.2, 28.35, 67.5, 20.4}
	build := func() *sched.Queue {
		q := sched.NewQueue(4)
		for i := 0; i < 64; i++ {
			k := rng.Intn(len(models))
			q.InsertGreedy(float64(i), sched.NewRequest(i, models[k], model.Short, float64(i), exts[k], []float64{exts[k]}))
		}
		return q
	}
	q := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sched.NewRequest(1000+i, "yolov2", model.Short, float64(i), 10.8, []float64{10.8})
		q.InsertGreedy(float64(i), r)
		if q.Len() > 256 {
			b.StopTimer()
			q = build()
			b.StartTimer()
		}
	}
}

// BenchmarkAlgorithm1WorstCase measures the O(n) worst case: the new
// request bubbles past the entire queue.
func BenchmarkAlgorithm1WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := sched.NewQueue(4)
		for j := 0; j < 1024; j++ {
			q.InsertGreedy(0, sched.NewRequest(j, "vgg19", model.Long, 0, 67.5, []float64{67.5}))
		}
		r := sched.NewRequest(9999, "yolov2", model.Short, 0, 0.001, []float64{0.001})
		b.StartTimer()
		q.InsertGreedy(0, r)
	}
}

// BenchmarkAblationSearchStrategies compares GA vs random search at a fixed
// budget (ablation 1).
func BenchmarkAblationSearchStrategies(b *testing.B) {
	g := zoo.MustLoad("resnet50")
	p := profiler.New(g, model.DefaultCostModel())
	b.Run("GA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := ga.DefaultConfig(3)
			cfg.Seed = int64(i + 1)
			if _, err := ga.Run(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random-2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ga.RandomSearch(p, 3, 2000, int64(i+1))
		}
	})
	b.Run("exhaustive-m2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Exhaustive(2, profiler.StdDevObjective)
		}
	})
}

// BenchmarkAblationEvenness reports the violation rate of even vs unsplit
// deployment under Scenario 5 (ablation 2).
func BenchmarkAblationEvenness(b *testing.B) {
	dep := deployOnce(b)
	unsplit := policy.NewCatalog(dep.Graphs, nil)
	sc := workload.Table2()[4]
	var even, none float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, int64(i+1)))
		even = metrics.ViolationRate(policy.NewSplit().Run(arrivals, dep.Catalog, nil), 4)
		none = metrics.ViolationRate(policy.NewSplit().Run(arrivals, unsplit, nil), 4)
	}
	b.ReportMetric(even*100, "even-viol@4-%")
	b.ReportMetric(none*100, "unsplit-viol@4-%")
}

// BenchmarkAblationElastic compares elastic splitting on/off under bursty
// Scenario 6 (ablation 3).
func BenchmarkAblationElastic(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.ElasticAblationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.ElasticAblation(dep, int64(i+1))
	}
	for _, r := range rows {
		if r.Scenario.Name == "Scenario6" {
			if r.Elastic {
				b.ReportMetric(r.MeanRR, "elastic-meanRR")
			} else {
				b.ReportMetric(r.MeanRR, "static-meanRR")
			}
		}
	}
}

// BenchmarkAblationBlockCount sweeps the block count of VGG19 (ablation 5).
func BenchmarkAblationBlockCount(b *testing.B) {
	cm := model.DefaultCostModel()
	var rows []core.BlockCountRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.BlockCountSweep("vgg19", 6, cm, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	best := rows[0]
	for _, r := range rows {
		if r.ExpectedWaitMs < best.ExpectedWaitMs {
			best = r
		}
	}
	b.ReportMetric(float64(best.Blocks), "optimal-blocks")
}

// BenchmarkAblationGuidedInit compares guided vs uniform GA initialization
// (ablation 6).
func BenchmarkAblationGuidedInit(b *testing.B) {
	g := zoo.MustLoad("vgg19")
	p := profiler.New(g, model.DefaultCostModel())
	for _, guided := range []bool{true, false} {
		name := "uniform"
		if guided {
			name = "guided"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ga.DefaultConfig(3)
				cfg.GuidedInit = guided
				cfg.Seed = int64(i + 1)
				if _, err := ga.Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioAllSystems measures a full Figure 6/7-style sweep of one
// scenario across every system.
func BenchmarkScenarioAllSystems(b *testing.B) {
	dep := deployOnce(b)
	sc := workload.Table2()[5]
	systems := core.DefaultSystems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			dep.RunScenario(sc, sys, int64(i+1), nil)
		}
	}
}

// BenchmarkGPT2Profile measures profiling the 2534-op GPT-2 graph: a full
// single-cut profile over every position.
func BenchmarkGPT2Profile(b *testing.B) {
	g := zoo.MustLoad("gpt2")
	p := profiler.New(g, model.DefaultCostModel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		over, std := p.SingleCutProfile()
		if len(over) != 2533 || len(std) != 2533 {
			b.Fatal("wrong profile size")
		}
	}
}

// BenchmarkFig1Microbenchmark regenerates the Figure 1 two-request
// comparison and reports SPLIT's and FCFS's short-request response ratios.
func BenchmarkFig1Microbenchmark(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Fig1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Fig1(dep)
	}
	for _, r := range rows {
		switch r.System {
		case "SPLIT":
			b.ReportMetric(r.ShortRR, "SPLIT-short-RR")
		case "ClockWork":
			b.ReportMetric(r.ShortRR, "FCFS-short-RR")
		}
	}
}

// BenchmarkAblationStarvationGuard runs the starvation-guard extension
// ablation and reports the long-request p95 RR with and without the guard.
func BenchmarkAblationStarvationGuard(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.StarvationRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.StarvationAblation(dep, int64(i+1))
	}
	for _, r := range rows {
		if r.GuardRR == 0 {
			b.ReportMetric(r.P95LongRR, "p95-longRR-off")
		}
		if r.GuardRR == 6 {
			b.ReportMetric(r.P95LongRR, "p95-longRR-guard6")
		}
	}
}

// BenchmarkREEFComparison runs Scenario 3 under SPLIT and REEF, reporting
// both short-jitter values (the §6 flexibility-vs-hardware trade).
func BenchmarkREEFComparison(b *testing.B) {
	dep := deployOnce(b)
	sc := workload.Table2()[2]
	var splitJ, reefJ float64
	shorts := []string{"yolov2", "googlenet", "gpt2"}
	mean := func(recs []policy.Record) float64 {
		j := metrics.JitterByModel(recs)
		var s float64
		for _, m := range shorts {
			s += j[m]
		}
		return s / float64(len(shorts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, int64(i+1)))
		splitJ = mean(policy.NewSplit().Run(arrivals, dep.Catalog, nil))
		reefJ = mean(policy.NewREEF().Run(arrivals, dep.Catalog, nil))
	}
	b.ReportMetric(splitJ, "SPLIT-short-jitter-ms")
	b.ReportMetric(reefJ, "REEF-short-jitter-ms")
}

// BenchmarkParallelSweep compares serial vs parallel candidate sweeps on the
// 2534-op GPT-2 graph (the heaviest profile target).
func BenchmarkParallelSweep(b *testing.B) {
	g := zoo.MustLoad("gpt2")
	p := profiler.New(g, model.DefaultCostModel())
	for _, workers := range []int{1, 4, 0} {
		name := "serial"
		switch workers {
		case 4:
			name = "workers-4"
		case 0:
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				if workers == 1 {
					p.RandomSample(4, 2000, rng)
				} else {
					p.RandomSampleParallel(4, 2000, workers, rng)
				}
			}
		})
	}
}

// BenchmarkGAParallelism compares GA wall time at different evaluation
// parallelism levels on GPT-2 (identical results by construction). Note:
// because the profiler precomputes prefix sums and boundary costs, a single
// candidate evaluation is O(m) and sub-microsecond, so the GA is expected
// to see little or no speedup — the measurement documents that the
// precomputation, not parallel evaluation, is what makes the GA fast.
func BenchmarkGAParallelism(b *testing.B) {
	g := zoo.MustLoad("gpt2")
	p := profiler.New(g, model.DefaultCostModel())
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers-4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ga.DefaultConfig(4)
				cfg.Parallelism = workers
				cfg.Seed = int64(i + 1)
				cfg.Generations = 10
				cfg.StallLimit = 10
				if _, err := ga.Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeRPC measures the serving path's per-request overhead: RPC
// round trip + Algorithm 1 insertion + executor wakeup, with near-zero
// simulated execution time so scheduling cost dominates.
func BenchmarkServeRPC(b *testing.B) {
	graphs := map[string]*model.Graph{
		"tiny": {
			Name: "tiny", Domain: "bench", Class: model.Short,
			Ops: []model.Op{{Name: "op", TimeMs: 0.01}},
		},
	}
	srv, err := serve.New(policy.NewCatalog(graphs, nil), serve.WithTimeScale(0.001))
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	c, err := serve.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer("tiny"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedInsertGreedy measures Algorithm 1's insertion cost at
// several queue depths. Sub-benchmark names are stable (`depth=N`) so
// `go test -bench InsertGreedy -count 10 | benchstat` can diff runs across
// PRs; ns/insert is also reported explicitly, amortized over the depth.
func BenchmarkSchedInsertGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	models := []string{"vgg19", "yolov2", "pos", "ner", "resnet50"}
	for _, depth := range []int{16, 64, 256} {
		reqs := make([]*sched.Request, depth)
		for i := range reqs {
			m := models[rng.Intn(len(models))]
			ext := 5 + rng.Float64()*120
			reqs[i] = sched.NewRequest(i, m, model.Short, rng.Float64()*100, ext,
				[]float64{ext / 3, ext / 3, ext / 3})
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := sched.NewQueue(4)
				for _, r := range reqs {
					q.InsertGreedy(r.ArriveMs, r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/insert")
		})
	}
}

// millionCohorts is the heterogeneous cohort mix of the million-request
// sweep: steady interactive traffic, bursty MMPP edge traffic, and a
// diurnally-modulated heavy-tailed batch population.
func millionCohorts(count int, seed int64) workload.CohortSetConfig {
	return workload.CohortSetConfig{
		Cohorts: []workload.Cohort{
			{
				Name:    "interactive",
				Models:  zoo.BenchmarkModels,
				Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 24},
			},
			{
				Name:   "edge-burst",
				Models: []string{"yolov2", "googlenet"},
				Process: workload.Process{
					Kind: workload.ProcMMPP, MeanIntervalMs: 120,
					BurstIntervalMs: 20, CalmDwellMs: 4000, BurstDwellMs: 1000,
				},
			},
			{
				Name:     "batch",
				Models:   []string{"vgg19", "gpt2"},
				Process:  workload.Process{Kind: workload.ProcLogNormal, MeanIntervalMs: 90, Sigma: 1.2},
				Envelope: &workload.Envelope{PeriodMs: 600000, Factors: []float64{0.5, 1, 2, 1}},
			},
		},
		Count: count,
		Seed:  seed,
	}
}

// BenchmarkCohortGeneration measures the lazy heap-merge generator alone:
// one million arrivals from three heterogeneous cohorts in a single pass.
func BenchmarkCohortGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerateCohorts(millionCohorts(1_000_000, int64(i+1)))
		if len(arrivals) != 1_000_000 {
			b.Fatal("lost arrivals")
		}
	}
}

// BenchmarkMillionRequestSweep measures the full million-request pipeline —
// cohort generation plus replay through policy.Split on a 4-device
// least-loaded fleet — and reports the simulated request throughput. This
// is the PR 8 scale point: the allocation work recorded in BENCH_2.json is
// what makes this sweep run in seconds.
func BenchmarkMillionRequestSweep(b *testing.B) {
	dep := deployOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerateCohorts(millionCohorts(1_000_000, int64(i+1)))
		sys := policy.NewSplit()
		sys.Devices = 4
		sys.Placement = "least-loaded"
		recs := sys.Run(arrivals, dep.Catalog, nil)
		if len(recs) != 1_000_000 {
			b.Fatal("lost requests")
		}
	}
	b.ReportMetric(float64(1_000_000*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkObsHotPath measures the instrumentation primitives the serving
// path calls per request, confirming they stay allocation-free.
func BenchmarkObsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter(obs.MetricRequestsTotal, "bench", "model", "vgg19")
	g := reg.Gauge(obs.MetricQueueDepth, "bench")
	h := reg.Histogram(obs.MetricE2EMs, "bench", obs.DefaultLatencyBuckets())
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.SetInt(i)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 4000))
		}
	})
}
