package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"split/internal/core"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Workload constants. sim-million replays the million-request cohort mix
// on a four-device least-loaded fleet; the capacity sweep searches the
// knee at one, two and four devices.
const (
	millionCount   = 1_000_000
	simDevices     = 4
	simPlacement   = "least-loaded"
	alpha          = 4.0
	checkPrefix    = 20_000 // arrivals replayed traced and untraced for the behaviour checks
	setupRepeats   = 31
	subSeeds       = 4
	capacityTarget = 0.10
	// capacityRequests is the trace length of every capacity probe (the
	// CapacityConfig default).
	capacityRequests = 20_000
)

var capacityDevices = []int{1, 2, 4}

// millionCohorts is the heterogeneous cohort mix of the million-request
// sweep: steady interactive traffic, bursty MMPP edge traffic, and a
// diurnally modulated heavy-tailed batch population.
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

// deploySetup runs the offline phase (GA splitting of the benchmark zoo)
// setupRepeats times; each is a set-up sample (see env.setupMs).
func deploySetup(e *env) (*core.Deployment, error) {
	var dep *core.Deployment
	for i := 0; i < setupRepeats; i++ {
		var ms float64
		var err error
		if dep, ms, err = deployOnce(e); err != nil {
			return nil, err
		}
		e.setupMs = append(e.setupMs, ms)
	}
	return dep, nil
}

// deployOnce runs core.DefaultPipeline().Deploy, adds its wall time to
// the run's Deploy samples and returns it in ms.
func deployOnce(e *env) (*core.Deployment, float64, error) {
	var dep *core.Deployment
	var err error
	ms := e.spans.time("core.Deploy", func() { dep, err = core.DefaultPipeline().Deploy() })
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: %w", err)
	}
	e.deployMs = append(e.deployMs, ms)
	return dep, ms, nil
}

// newSplit is the simulator configuration the workloads replay through.
func newSplit(devices int, placement string) *policy.Split {
	sys := policy.NewSplit()
	sys.Alpha = alpha
	sys.Devices = devices
	sys.Placement = placement
	return sys
}

// traceCounts are behaviour counts folded from a trace.Tracer stream.
type traceCounts struct {
	Requests, Events, Blocks, Preempts, Places int
}

// checkReplay replays arrivals through sys untraced and traced, checks
// the two record sets are identical and complete and that the traced
// stream folds into spans without problems, and returns the stream's
// behaviour counts.
func checkReplay(e *env, sys *policy.Split, arrivals []workload.Arrival, catalog policy.Catalog) traceCounts {
	plain, _ := sys.RunWithStats(arrivals, catalog, nil)
	tr := trace.New()
	traced, _ := sys.RunWithStats(arrivals, catalog, tr)
	checkRecords(e, arrivals, plain)
	if !reflect.DeepEqual(plain, traced) {
		e.fail("traced and untraced records differ on %d arrivals", len(arrivals))
	}
	if tree := trace.BuildSpans(tr.Events()); len(tree.Problems) > 0 {
		e.fail("span folding found %d problems, first: %s", len(tree.Problems), tree.Problems[0])
	}
	c := traceCounts{Requests: len(arrivals)}
	for _, ev := range tr.Events() {
		c.Events++
		switch ev.Kind {
		case trace.EndBlock:
			c.Blocks++
		case trace.Preempt:
			c.Preempts++
		case trace.Place:
			c.Places++
		}
	}
	return c
}

// setTraceCounts records the per-layer behaviour counts of a replay.
func (e *env) setTraceCounts(c traceCounts) {
	n := float64(max(c.Requests, 1))
	e.set("policy.blocks_per_req", float64(c.Blocks)/n)
	e.set("sched.preemptions_per_req", float64(c.Preempts)/n)
	e.set("place.decisions", float64(c.Places))
	e.set("trace.events_per_req", float64(c.Events)/n)
}

// checkRecords checks there is exactly one record per arrival, in ID
// order, for the arrival's model.
func checkRecords(e *env, arrivals []workload.Arrival, recs []policy.Record) {
	if len(recs) != len(arrivals) {
		e.fail("%d records for %d arrivals", len(recs), len(arrivals))
		return
	}
	for i, r := range recs {
		a := arrivals[i]
		if r.ID != a.ID || r.Model != a.Model {
			e.fail("record %d is (%d, %s), want arrival (%d, %s)", i, r.ID, r.Model, a.ID, a.Model)
			return
		}
	}
}

// recordDigest hashes every field of every record, so repeated passes can
// be compared without keeping a million records alive.
func recordDigest(recs []policy.Record) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(r.ID))
		buf = append(buf, r.Model...)
		buf = append(buf, r.Class...)
		for _, f := range []float64{r.ArriveMs, r.StartMs, r.DoneMs, r.ExtMs} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Preemptions))
		if r.Split {
			buf = append(buf, 1)
		}
		buf = append(buf, r.Outcome...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Device))
		h.Write(buf)
	}
	return h.Sum64()
}

// qos holds the QoS values of one record set, in virtual ms.
type qos struct {
	Viol4Pct, JitterShortMs float64
	P50Ms, P99Ms, TailPct   float64
	Samples                 int
}

// recordQoS computes viol@4 (shed records count as violating), the mean
// e2e standard deviation over the short-class models (Figure 7's jitter)
// and the served e2e median and tail.
func recordQoS(recs []policy.Record) qos {
	q := qos{Viol4Pct: 100 * metrics.ViolationRate(recs, alpha)}
	var short []policy.Record
	e2e := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Served() {
			e2e = append(e2e, r.E2EMs())
			if r.Class == model.Short {
				short = append(short, r)
			}
		}
	}
	q.JitterShortMs = meanJitter(metrics.JitterByModel(short))
	q.P50Ms, _, _ = tail(e2e, 50)
	q.P99Ms, q.TailPct, q.Samples = tail(e2e, 99)
	return q
}

// meanQoS averages the QoS of equally sized record sets (one per
// sub-seed); Samples is the per-set sample count.
func meanQoS(qs []qos) qos {
	var m qos
	for _, q := range qs {
		m.Viol4Pct += q.Viol4Pct / float64(len(qs))
		m.JitterShortMs += q.JitterShortMs / float64(len(qs))
		m.P50Ms += q.P50Ms / float64(len(qs))
		m.P99Ms += q.P99Ms / float64(len(qs))
		m.TailPct = q.TailPct
		m.Samples = q.Samples
	}
	return m
}

// meanJitter averages per-model jitter.
func meanJitter(byModel map[string]float64) float64 {
	if len(byModel) == 0 {
		return 0
	}
	var s float64
	for _, j := range byModel {
		s += j
	}
	return s / float64(len(byModel))
}

// setQoS records the QoS values and the e2e median and tail.
func (e *env) setQoS(q qos, how string) {
	e.set("qos.viol4_pct", q.Viol4Pct)
	e.set("qos.jitter_short_ms", q.JitterShortMs)
	e.setLatency(q.P50Ms, q.P99Ms, q.TailPct, q.Samples, how)
}

// subSeed derives the k-th input seed of a run. sim-capacity cycles its
// sweeps through subSeeds inputs, because the cost of a sweep depends on
// the knees its trace leads to: one run then averages over several
// generated traces instead of resting on one.
func subSeed(seed int64, k int) int64 { return seed*subSeeds + int64(k) }

// repeatUnits runs unit(i) for i = 0, 1, ... until the run's time is up,
// and at least twice for each of the keys inputs unit cycles through (unit
// i works on input i mod keys). unit does the timed work and returns the
// requests it handled plus a function that checks and folds its outputs,
// which runs outside the timed region. It returns the unprofiled units. On
// a traced run those are the first half of the time, the reference; the
// second half runs under the profiler, and trace.overhead_pct compares the
// two halves' median wall time per request.
func (e *env) repeatUnits(keys int, unit func(i int) (reqs int, after func(), err error)) ([]unitStats, error) {
	minUnits := 2 * keys
	start := wallNow()
	budgetMs := float64(e.dur.Milliseconds())
	var plain, profiled []unitStats
	i := 0
	run := func(into *[]unitStats) error {
		var reqs int
		var after func()
		st, err := measure(func() error {
			if err := e.prof.resume(); err != nil {
				return err
			}
			var err error
			reqs, after, err = unit(i)
			return err
		})
		// The output checks run with the CPU profile paused.
		e.prof.pause()
		if err != nil {
			return err
		}
		after()
		st.Reqs, st.Key = reqs, i%keys
		i++
		*into = append(*into, st)
		return nil
	}
	if !e.traced {
		for i < minUnits || sinceMs(start) < budgetMs {
			if err := run(&plain); err != nil {
				return nil, err
			}
		}
		return plain, nil
	}
	for len(plain) < 1 || sinceMs(start) < budgetMs/2 {
		if err := run(&plain); err != nil {
			return nil, err
		}
	}
	if err := e.prof.start(); err != nil {
		return nil, err
	}
	reqs := 0
	for len(profiled) < 1 || i < minUnits || sinceMs(start) < budgetMs {
		if err := run(&profiled); err != nil {
			return nil, err
		}
		reqs += profiled[len(profiled)-1].Reqs
	}
	if err := e.prof.stop(e, reqs); err != nil {
		return nil, err
	}
	e.set("trace.overhead_pct", 100*(median(msPerReq(profiled))/median(msPerReq(plain))-1))
	return plain, nil
}

func msPerReq(units []unitStats) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.WallMs / float64(max(u.Reqs, 1))
	}
	return out
}

// setUnitMetrics records throughput and CPU time per request as best-of,
// and allocations and peak heap as medians over the units. Best-of takes
// each input's fastest unit (by wall time, and separately by CPU time)
// and divides their summed time by their requests. It is best-of because
// other tenants of a shared host only ever slow a unit down: on a 2-vCPU
// container the median unit's rate moved 25-35% between runs of the same
// code, while identical units within one run differed by up to 45%.
func (e *env) setUnitMetrics(units []unitStats) {
	bestMs, bestCPUMs := map[int]float64{}, map[int]float64{}
	reqs := map[int]int{}
	var allocs, peaks []float64
	for _, u := range units {
		if b, ok := bestMs[u.Key]; !ok || u.WallMs < b {
			bestMs[u.Key] = u.WallMs
		}
		if b, ok := bestCPUMs[u.Key]; !ok || u.CPUMs < b {
			bestCPUMs[u.Key] = u.CPUMs
		}
		reqs[u.Key] = u.Reqs
		allocs = append(allocs, float64(u.Allocs)/float64(max(u.Reqs, 1)))
		peaks = append(peaks, u.PeakMB)
	}
	var n, ms, cpu float64
	for k, b := range bestMs {
		n += float64(reqs[k])
		ms += b
		cpu += bestCPUMs[k]
	}
	e.set("req_per_s", n/(ms/1000))
	e.set("cpu_us_per_req", 1000*cpu/n)
	e.set("allocs_per_req", median(allocs))
	e.set("peak_heap_mb", median(peaks))
	e.note("timed units: %d over %d inputs (best-of throughput, medians for the rest)", len(units), len(bestMs))
	for _, u := range units {
		e.note("  %d requests: wall %.1f ms, cpu %.1f ms, peak heap %.1f MB", u.Reqs, u.WallMs, u.CPUMs, u.PeakMB)
	}
}

// simMillion generates the million-request cohort trace and replays it
// through policy.Split on four least-loaded devices, pass after pass, with
// tracing off. Every pass must reproduce the first one's records.
func simMillion(e *env) error {
	dep, err := deploySetup(e)
	if err != nil {
		return err
	}
	sys := newSplit(simDevices, simPlacement)

	prefix, err := workload.GenerateCohorts(millionCohorts(checkPrefix, e.seed))
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	counts := checkReplay(e, sys, prefix, dep.Catalog)

	var (
		digest       uint64
		q            qos
		busyFrac     float64
		genMs, runMs []float64
	)
	units, err := e.repeatUnits(1, func(i int) (int, func(), error) {
		var arrivals []workload.Arrival
		var gerr error
		gen := e.spans.time("workload.GenerateCohorts", func() {
			arrivals, gerr = workload.GenerateCohorts(millionCohorts(millionCount, e.seed))
		})
		if gerr != nil {
			return 0, nil, fmt.Errorf("generate: %w", gerr)
		}
		var recs []policy.Record
		var st policy.FleetStats
		run := e.spans.time("policy.Split.RunWithStats", func() {
			recs, st = sys.RunWithStats(arrivals, dep.Catalog, nil)
		})
		if !e.prof.profiling() {
			genMs, runMs = append(genMs, gen), append(runMs, run)
		}
		e.attempted += len(arrivals)
		return len(arrivals), func() {
			d := recordDigest(recs)
			switch {
			case i == 0:
				digest = d
				checkRecords(e, arrivals, recs)
				q = recordQoS(recs)
				busyFrac = servedExtMs(recs) / st.DeviceHoursMs
			case d != digest:
				e.fail("pass %d: records differ from the first pass", i)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	e.setUnitMetrics(units)
	e.setQoS(q, "virtual e2e of the trace")
	e.setTraceCounts(counts)
	e.set("gpusim.busy_frac", busyFrac)
	e.set("workload.generate_ms", median(genMs))
	e.set("policy.run_ms", median(runMs))
	_, err = deploySetup(e)
	return err
}

// servedExtMs sums the isolated execution time of served requests: the
// device time the fleet actually spent.
func servedExtMs(recs []policy.Record) float64 {
	var s float64
	for _, r := range recs {
		if r.Served() {
			s += r.ExtMs
		}
	}
	return s
}

// simCapacity runs Deployment.CapacitySweep over one, two and four
// devices, sweep after sweep; sweep i searches with sub-seed i mod
// subSeeds. Every sweep must find the same knees as the earlier sweep on
// its sub-seed, and the knees must grow with the fleet.
func simCapacity(e *env) error {
	dep, err := deploySetup(e)
	if err != nil {
		return err
	}
	rows := map[int][]core.CapacityRow{}
	var sweepMs []float64
	units, err := e.repeatUnits(subSeeds, func(i int) (int, func(), error) {
		k := i % subSeeds
		cfg := core.CapacityConfig{Requests: capacityRequests, ViolTarget: capacityTarget, Alpha: alpha, Seed: subSeed(e.seed, k)}
		var got []core.CapacityRow
		ms := e.spans.time("core.CapacitySweep", func() {
			got = dep.CapacitySweep(cfg, capacityDevices)
		})
		if !e.prof.profiling() {
			sweepMs = append(sweepMs, ms)
		}
		probes := 0
		for _, r := range got {
			probes += r.Evals
		}
		e.attempted += probes * capacityRequests
		return probes * capacityRequests, func() {
			if prev, ok := rows[k]; !ok {
				rows[k] = got
			} else if !reflect.DeepEqual(got, prev) {
				e.fail("sweep %d: capacity rows differ from the earlier sweep on sub-seed %d", i, k)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	e.setUnitMetrics(units)

	// Reproduce each sub-seed's four-device knee probe through the public
	// API: the trace CapacitySearch generated, replayed traced and
	// untraced. Its records give the QoS metrics and must match the
	// sweep's violation rate at the knee exactly.
	var qs []qos
	var kneeSum, busySum, runSum float64
	probes := 0
	for k := 0; k < subSeeds; k++ {
		rs, ok := rows[k]
		if !ok {
			continue
		}
		for i, r := range rs {
			probes += r.Evals
			e.note("capacity sub-seed %d: %d devices knee %.2f req/s viol@knee %.2f%% (%d probes)",
				k, r.Devices, r.KneeReqPerSec, 100*r.ViolAtKnee, r.Evals)
			if i > 0 && !(r.KneeReqPerSec > rs[i-1].KneeReqPerSec) {
				e.fail("sub-seed %d: knee does not grow with devices: %d dev %.2f req/s, %d dev %.2f req/s",
					k, rs[i-1].Devices, rs[i-1].KneeReqPerSec, r.Devices, r.KneeReqPerSec)
			}
		}
		knee := rs[len(rs)-1]
		kneeSum += knee.KneeReqPerSec
		arrivals, err := workload.GenerateCohorts(workload.CohortSetConfig{
			Cohorts: []workload.Cohort{{
				Models:  zoo.BenchmarkModels,
				Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 1000 / knee.KneeReqPerSec},
			}},
			Count: capacityRequests,
			Seed:  subSeed(e.seed, k),
		})
		if err != nil {
			return fmt.Errorf("generate knee probe: %w", err)
		}
		sys := newSplit(knee.Devices, knee.Placement)
		var recs []policy.Record
		var st policy.FleetStats
		runSum += e.spans.time("policy.Split.RunWithStats", func() { recs, st = sys.RunWithStats(arrivals, dep.Catalog, nil) })
		counts := checkReplay(e, sys, arrivals, dep.Catalog)
		if k == 0 {
			e.setTraceCounts(counts)
		}
		if v := metrics.ViolationRate(recs, alpha); v != knee.ViolAtKnee {
			e.fail("sub-seed %d: knee probe replay viol %.6f, sweep reported %.6f", k, v, knee.ViolAtKnee)
		}
		qs = append(qs, recordQoS(recs))
		busySum += servedExtMs(recs) / st.DeviceHoursMs
	}
	n := float64(len(qs))
	e.setQoS(meanQoS(qs), fmt.Sprintf("mean over %d sub-seed knee probes of the virtual e2e", len(qs)))
	e.set("gpusim.busy_frac", busySum/n)
	e.set("core.knee_rps", kneeSum/n)
	e.set("core.probes", float64(probes)/n)
	e.set("core.probe_ms", median(sweepMs)/(float64(probes)/n))
	e.set("policy.run_ms", runSum/n)
	_, err = deploySetup(e)
	return err
}
