package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/serve"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Serving workload constants. serve-closed drives the near-zero-exec tiny
// model on four devices; serve-open replays a Poisson schedule of the five
// Table 1 models on two devices at ~45% of the simulator's two-device knee.
const (
	ringEvents      = 4096 // the flight recorder splitd -admin attaches
	closedDevices   = 4
	closedTimeScale = 0.001
	// closedConns is one connection, not nproc: with two back-to-back
	// clients the client and server goroutines oversubscribe both vCPUs
	// and the tail measures run-queue contention. On the 2-vCPU
	// container, two connections gave p99 0.7-1.7 ms across back-to-back
	// runs, one gave 0.25-0.27 ms at about the same throughput.
	closedConns      = 1
	closedWarmup     = 500 // requests before timing
	openDevices      = 2
	openTimeScale    = 0.05
	openRatePerS     = 25.0 // virtual req/s
	openLeadMs       = 20.0 // wall lead before the first due time
	openMaxInflight  = 1024
	queueSampleEvery = 10 * time.Millisecond
	goroutineSettle  = 5 * time.Second
)

// tinyCatalog is BenchmarkServeRPC's single near-zero-exec short model.
func tinyCatalog() policy.Catalog {
	return policy.NewCatalog(map[string]*model.Graph{
		"tiny": {
			Name: "tiny", Domain: "bench", Class: model.Short,
			Ops: []model.Op{{Name: "op", TimeMs: 0.01}},
		},
	}, nil)
}

// liveServer is one in-process server configured as `splitd -admin` runs
// it (obs registry plus a trace ring), listening on loopback, with the
// workload's client connections.
type liveServer struct {
	srv     *serve.Server
	reg     *obs.Registry
	clients []*serve.Client
	catalog policy.Catalog
}

func (ls *liveServer) close() {
	for _, c := range ls.clients {
		c.Close()
	}
	ls.srv.Stop()
}

// scrape renders and parses the registry's Prometheus text.
func (ls *liveServer) scrape() (promText, error) {
	var buf bytes.Buffer
	if err := ls.reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return parsePromText(buf.String())
}

// serveSetup deploys the zoo, starts the server and dials the clients,
// setupRepeats times; each is a set-up sample (see env.setupMs). All but
// the last server are stopped again.
func serveSetup(e *env, spec serverSpec) (*liveServer, error) {
	var ls *liveServer
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			ls.close()
		}
		t0 := wallNow()
		var err error
		ls, err = startServer(e, spec)
		if err != nil {
			return nil, err
		}
		e.setupMs = append(e.setupMs, sinceMs(t0))
		e.spans.add(span{Name: "setup", Start: t0, End: wallNow()})
	}
	return ls, nil
}

// resetup takes the run's second set of set-up samples, after the timed
// work, and stops those servers again.
func resetup(e *env, spec serverSpec) error {
	ls, err := serveSetup(e, spec)
	if err != nil {
		return err
	}
	ls.close()
	return nil
}

// serverSpec is one serving workload's deployment: the catalog it serves
// (given the deployed zoo's), fleet size, time scale and client
// connections.
type serverSpec struct {
	catalog   func(policy.Catalog) policy.Catalog
	devices   int
	timeScale float64
	conns     int
}

func startServer(e *env, spec serverSpec) (*liveServer, error) {
	dep, _, err := deployOnce(e)
	if err != nil {
		return nil, err
	}
	ls := &liveServer{reg: obs.NewRegistry(), catalog: spec.catalog(dep.Catalog)}
	ls.srv, err = serve.New(ls.catalog,
		serve.WithElastic(sched.DefaultElastic()),
		serve.WithTimeScale(spec.timeScale),
		serve.WithDevices(spec.devices),
		serve.WithPlacement(simPlacement),
		serve.WithObs(ls.reg),
		serve.WithSink(trace.NewRing(ringEvents)),
	)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if err := ls.srv.Start(l); err != nil {
		l.Close()
		return nil, fmt.Errorf("start: %w", err)
	}
	for i := 0; i < spec.conns; i++ {
		c, err := serve.Dial(ls.srv.Addr())
		if err != nil {
			ls.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		ls.clients = append(ls.clients, c)
	}
	return ls, nil
}

// checkShutdown stops the server and checks that every goroutine the run
// started has exited.
func checkShutdown(e *env, ls *liveServer, baseline int) {
	ls.close()
	t0 := wallNow()
	for runtime.NumGoroutine() > baseline && sinceMs(t0) < float64(goroutineSettle.Milliseconds()) {
		sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		e.fail("%d goroutines still running after Stop, baseline %d", n, baseline)
	}
}

// reqOutcome is one open-loop Client.Infer call as the client saw it,
// with times in wall ms since the loop's epoch.
type reqOutcome struct {
	Model          string
	DueMs, ReplyMs float64
	Reply          serve.InferReply
	Err            error
}

// checkOutcomes checks the open loop's replies: each is for the requested
// model with RR >= 1, and sent = replies + typed serving errors. It counts
// attempts and failures, records fail_pct and returns the replies.
func checkOutcomes(e *env, outs []reqOutcome) int {
	var replies, typed int
	var firstOther error
	for _, o := range outs {
		switch {
		case o.Err != nil && serve.CodeForError(o.Err) == "" && !serve.IsShed(o.Err):
			if firstOther == nil {
				firstOther = o.Err
			}
		case o.Err != nil:
			typed++
		default:
			replies++
			if o.Reply.Model != o.Model {
				e.fail("reply for model %q to a %q request", o.Reply.Model, o.Model)
			}
			if o.Reply.ResponseRatio < 1 {
				e.fail("request %d: response ratio %.4f < 1", o.Reply.ReqID, o.Reply.ResponseRatio)
			}
		}
	}
	if len(outs) != replies+typed {
		e.fail("sent %d requests, got %d replies and %d typed errors; first other error: %v", len(outs), replies, typed, firstOther)
	}
	e.attempted += len(outs)
	e.failed += typed
	e.set("fail_pct", 100*float64(typed)/float64(max(len(outs), 1)))
	return replies
}

// openBlockReqs is the least number of consecutive requests the open
// loop's QoS and latency are computed over; the run reports the median
// block. A thousand requests leave ten beyond the p99.
const openBlockReqs = 1000

// blockQoS is the open-loop QoS of one block of requests.
type blockQoS struct {
	Viol4Pct, JitterShortMs, P50Ms, TailMs, TailPct float64
	N                                               int
}

// openBlocks splits outs, in due order, into equal blocks of at least
// openBlockReqs requests (one block when there are fewer) and computes
// each block's QoS.
func openBlocks(outs []reqOutcome, catalog policy.Catalog) []blockQoS {
	n := max(len(outs)/openBlockReqs, 1)
	var bs []blockQoS
	for b := 0; b < n; b++ {
		block := outs[b*len(outs)/n : (b+1)*len(outs)/n]
		violating := 0
		var e2e []float64
		short := map[string][]float64{}
		for _, o := range block {
			if o.Err != nil || o.Reply.ResponseRatio > alpha {
				violating++
			}
			if o.Err != nil {
				continue
			}
			e2e = append(e2e, o.ReplyMs-o.DueMs)
			if info := catalog[o.Model]; info != nil && info.Class == model.Short {
				short[o.Model] = append(short[o.Model], o.Reply.E2EMs)
			}
		}
		jitter := map[string]float64{}
		for m, xs := range short {
			jitter[m] = stats.StdDev(xs)
		}
		q := blockQoS{Viol4Pct: 100 * float64(violating) / float64(max(len(block), 1)), JitterShortMs: meanJitter(jitter)}
		q.P50Ms, _, _ = tail(e2e, 50)
		q.TailMs, q.TailPct, q.N = tail(e2e, 99)
		bs = append(bs, q)
	}
	return bs
}

// setOpenQoS records the open loop's QoS and latency as the median over
// request blocks, which keeps a few seconds of host stall from moving the
// whole run's figure.
func (e *env) setOpenQoS(bs []blockQoS) {
	var viol, jitter, p50, tails []float64
	for _, b := range bs {
		viol = append(viol, b.Viol4Pct)
		jitter = append(jitter, b.JitterShortMs)
		p50 = append(p50, b.P50Ms)
		tails = append(tails, b.TailMs)
		e.note("  block of %d replies: viol4 %.2f%%, jitter %.2f ms, e2e p50 %.3f ms, p%g %.3f ms", b.N, b.Viol4Pct, b.JitterShortMs, b.P50Ms, b.TailPct, b.TailMs)
	}
	e.set("qos.viol4_pct", median(viol))
	e.set("qos.jitter_short_ms", median(jitter))
	if len(bs) > 0 {
		e.setLatency(median(p50), median(tails), bs[0].TailPct, bs[0].N,
			fmt.Sprintf("wall from each request's due time; median over %d blocks", len(bs)))
	}
}

// setOverhead records the wall time outside the server's virtual clock:
// wall e2e minus TimeScale times the reply's virtual e2e.
func (e *env) setOverhead(overheadMs []float64) {
	p50, _, _ := tail(overheadMs, 50)
	p99, _, _ := tail(overheadMs, 99)
	e.set("serve.overhead_p50_ms", p50)
	e.set("serve.overhead_p99_ms", p99)
}

// setRegistryMetrics records the serving layer's own counters between two
// scrapes of the registry, over reqs completed requests and wallMs of wall
// time.
func (e *env) setRegistryMetrics(before, after promText, reqs int, devices int, wallMs, timeScale float64) {
	n := float64(max(reqs, 1))
	delta := func(name string) float64 { return after.sum(name, "", "") - before.sum(name, "", "") }
	e.set("serve.preemptions_per_req", delta(obs.MetricPreemptions)/n)
	e.set("serve.blocks_per_req", delta(obs.MetricDeviceBlocks)/n)
	e.set("serve.drops", delta(obs.MetricDropsTotal))
	if virtualMs := wallMs / timeScale; virtualMs > 0 {
		e.set("serve.device_busy_frac", delta(obs.MetricDeviceBusyMs)/(float64(devices)*virtualMs))
	}
	e.set("serve.wait_virtual_ms_p50", after.histQuantile(obs.MetricWaitMs, 0.5, before))
}

// queueSampler polls the server's queue depth while a run is in flight.
type queueSampler struct {
	quit, done chan struct{}
	sum, n     float64
	max        float64
}

// startQueueSampler polls on traced runs only: a snapshot takes the
// server mutex and allocates, which the untraced run must not pay. It
// returns nil otherwise, and stopping a nil sampler does nothing.
func startQueueSampler(e *env, srv *serve.Server) *queueSampler {
	if !e.traced {
		return nil
	}
	q := &queueSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		for {
			d := float64(srv.QueueSnapshot().Depth)
			q.sum += d
			q.n++
			if d > q.max {
				q.max = d
			}
			select {
			case <-q.quit:
				return
			default:
			}
			sleep(queueSampleEvery)
		}
	}()
	return q
}

func (q *queueSampler) stop(e *env) {
	if q == nil {
		return
	}
	close(q.quit)
	<-q.done
	if q.n > 0 {
		e.set("serve.queue_depth_mean", q.sum/q.n)
	}
	e.set("serve.queue_depth_max", q.max)
}

// closedWindowMs is the window the closed loop's throughput, CPU time,
// latency and jitter are computed over. The run reports the fastest
// window's throughput and CPU time per request (best-of, as for the
// simulator's units) and the median window's latency and jitter.
const closedWindowMs = 1000.0

// windowStats are the closed-loop metrics of one window.
type windowStats struct {
	ReqPerS, CPUUsPerReq, P50Ms, TailMs, TailPct, JitterMs, OverheadP50Ms, OverheadP99Ms float64
	N                                                                                    int
}

// closedResult is what the closed-loop client saw.
type closedResult struct {
	windows                             []windowStats
	sent, replies, typedErrs, violating int
	problems                            []string
}

// closedLoop sends Infer("tiny") back to back on one client until count
// requests (count > 0) or ms of wall time, checking every reply. It folds
// latencies into per-window statistics as it goes, so the harness holds
// one window of samples rather than the run's. A trailing partial window
// is dropped unless it is the only one.
func closedLoop(ls *liveServer, count int, ms float64, spans *spanRecorder) closedResult {
	c := ls.clients[0]
	var r closedResult
	var wall, virt, over []float64
	epoch := wallNow()
	window := 0
	cpu0 := cpuMs()
	flush := func(widthMs float64) {
		if len(wall) == 0 {
			return
		}
		cpu := cpuMs()
		w := windowStats{ReqPerS: float64(len(wall)) / (widthMs / 1000), CPUUsPerReq: 1000 * (cpu - cpu0) / float64(len(wall)),
			JitterMs: stats.StdDev(virt)}
		cpu0 = cpu
		w.P50Ms, _, _ = tail(wall, 50)
		w.TailMs, w.TailPct, w.N = tail(wall, 99)
		w.OverheadP50Ms, _, _ = tail(over, 50)
		w.OverheadP99Ms, _, _ = tail(over, 99)
		r.windows = append(r.windows, w)
		wall, virt, over = wall[:0], virt[:0], over[:0]
	}
	for k := 0; count == 0 || k < count; k++ {
		if count == 0 && sinceMs(epoch) >= ms {
			break
		}
		t0 := wallNow()
		rep, err := c.Infer("tiny")
		t1 := wallNow()
		r.sent++
		spans.add(span{Name: "serve.Client.Infer", ReqID: rep.ReqID, Lane: 1, Start: t0, End: t1})
		switch {
		case err != nil && serve.CodeForError(err) == "" && !serve.IsShed(err):
			r.problems = append(r.problems, fmt.Sprintf("untyped error from Infer(tiny): %v", err))
			continue
		case err != nil:
			r.typedErrs++
			r.violating++
			continue
		case rep.Model != "tiny":
			r.problems = append(r.problems, fmt.Sprintf("reply for model %q to a tiny request", rep.Model))
		case rep.ResponseRatio < 1:
			r.problems = append(r.problems, fmt.Sprintf("request %d: response ratio %.4f < 1", rep.ReqID, rep.ResponseRatio))
		}
		r.replies++
		if rep.ResponseRatio > alpha {
			r.violating++
		}
		if w := int(msSince(epoch, t1) / closedWindowMs); w != window {
			flush(closedWindowMs)
			window = w
		}
		lat := msSince(t0, t1)
		wall = append(wall, lat)
		virt = append(virt, rep.E2EMs)
		over = append(over, lat-closedTimeScale*rep.E2EMs)
	}
	if len(r.windows) == 0 {
		flush(sinceMs(epoch))
	}
	return r
}

// serveClosed runs one connection with one outstanding Client.Infer of
// the tiny model, back to back, for the run's time.
func serveClosed(e *env) error {
	baseline := runtime.NumGoroutine()
	spec := serverSpec{
		catalog:   func(policy.Catalog) policy.Catalog { return tinyCatalog() },
		devices:   closedDevices,
		timeScale: closedTimeScale,
		conns:     closedConns,
	}
	ls, err := serveSetup(e, spec)
	if err != nil {
		return err
	}
	// Warm the connection and the server's lazily grown state. The
	// warm-up's replies are checked like the timed ones.
	warm := closedLoop(ls, closedWarmup, 0, nil)
	e.problems = append(e.problems, warm.problems...)
	if warm.sent != warm.replies+warm.typedErrs {
		e.fail("warm-up sent %d requests, got %d replies and %d typed errors", warm.sent, warm.replies, warm.typedErrs)
	}
	e.attempted += warm.sent
	e.failed += warm.typedErrs
	epoch := wallNow()
	budgetMs := float64(e.dur.Milliseconds())
	before, err := ls.scrape()
	if err != nil {
		return err
	}
	qs := startQueueSampler(e, ls.srv)
	phase := func(ms float64, spans *spanRecorder) (unitStats, closedResult) {
		var r closedResult
		st, _ := measure(func() error {
			r = closedLoop(ls, 0, ms, spans)
			return nil
		})
		st.Reqs = r.replies
		return st, r
	}
	var st unitStats
	var res closedResult
	if e.traced {
		plain, plainRes := phase(budgetMs/2, nil)
		if err := e.prof.start(); err != nil {
			return err
		}
		profiled, profiledRes := phase(budgetMs/2, e.spans)
		if err := e.prof.stop(e, profiled.Reqs); err != nil {
			return err
		}
		e.set("trace.overhead_pct", 100*(msPerReq([]unitStats{profiled})[0]/msPerReq([]unitStats{plain})[0]-1))
		// The metrics below come from the unprofiled half; the profiled
		// half adds its requests to the checks.
		st, res = plain, plainRes
		res.sent += profiledRes.sent
		res.replies += profiledRes.replies
		res.typedErrs += profiledRes.typedErrs
		res.violating += profiledRes.violating
		res.problems = append(res.problems, profiledRes.problems...)
	} else {
		st, res = phase(budgetMs, nil)
	}
	qs.stop(e)
	after, err := ls.scrape()
	if err != nil {
		return err
	}
	e.problems = append(e.problems, res.problems...)
	if res.sent != res.replies+res.typedErrs {
		e.fail("sent %d requests, got %d replies and %d typed errors", res.sent, res.replies, res.typedErrs)
	}
	e.attempted += res.sent
	e.failed += res.typedErrs

	e.set("allocs_per_req", float64(st.Allocs)/float64(max(st.Reqs, 1)))
	e.set("peak_heap_mb", st.PeakMB)
	e.set("qos.viol4_pct", 100*float64(res.violating)/float64(max(res.sent, 1)))
	e.set("fail_pct", 100*float64(res.typedErrs)/float64(max(res.sent, 1)))
	if len(res.windows) == 0 {
		e.fail("no replies in the timed loop")
		return nil
	}
	var rates, cpus, p50s, tails, jitters, ovP50, ovP99 []float64
	for _, w := range res.windows {
		rates = append(rates, w.ReqPerS)
		cpus = append(cpus, w.CPUUsPerReq)
		p50s = append(p50s, w.P50Ms)
		tails = append(tails, w.TailMs)
		jitters = append(jitters, w.JitterMs)
		ovP50 = append(ovP50, w.OverheadP50Ms)
		ovP99 = append(ovP99, w.OverheadP99Ms)
	}
	e.set("req_per_s", stats.Max(rates))
	e.set("cpu_us_per_req", stats.Min(cpus))
	e.set("qos.jitter_short_ms", median(jitters))
	e.set("serve.overhead_p50_ms", median(ovP50))
	e.set("serve.overhead_p99_ms", median(ovP99))
	e.set("serve.overhead_virtual_ms_p50", median(ovP50)/closedTimeScale)
	e.setLatency(median(p50s), median(tails), res.windows[0].TailPct, res.windows[0].N,
		fmt.Sprintf("wall from send; median over %d windows of %.0f ms, samples in the first window", len(res.windows), closedWindowMs))
	e.setRegistryMetrics(before, after, res.replies, closedDevices, sinceMs(epoch), closedTimeScale)
	if err := resetup(e, spec); err != nil {
		return err
	}
	checkShutdown(e, ls, baseline)
	return nil
}

// msSince is t - epoch in milliseconds.
func msSince(epoch, t time.Time) float64 {
	return float64(t.Sub(epoch)) / float64(time.Millisecond)
}

// serveOpen sends a generated Poisson schedule of the five benchmark
// models, each request at its due wall time regardless of replies, over
// nproc connections, and replays the same schedule through the simulator
// for the sim-vs-live comparison.
func serveOpen(e *env) error {
	baseline := runtime.NumGoroutine()
	spec := serverSpec{
		catalog:   func(c policy.Catalog) policy.Catalog { return c },
		devices:   openDevices,
		timeScale: openTimeScale,
		conns:     runtime.NumCPU(),
	}
	ls, err := serveSetup(e, spec)
	if err != nil {
		return err
	}
	count := int(e.dur.Seconds() * openRatePerS / openTimeScale)
	arrivals, err := workload.GenerateCohorts(workload.CohortSetConfig{
		Cohorts: []workload.Cohort{{
			Models:  zoo.BenchmarkModels,
			Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 1000 / openRatePerS},
		}},
		Count: count,
		Seed:  e.seed,
	})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}

	// The simulator's verdict on the identical schedule and fleet.
	sys := newSplit(openDevices, simPlacement)
	var simRecs []policy.Record
	var simStats policy.FleetStats
	e.set("policy.run_ms", e.spans.time("policy.Split.RunWithStats", func() {
		simRecs, simStats = sys.RunWithStats(arrivals, ls.catalog, nil)
	}))
	e.set("serve.sim_viol4_pct", recordQoS(simRecs).Viol4Pct)
	e.set("gpusim.busy_frac", servedExtMs(simRecs)/simStats.DeviceHoursMs)
	e.setTraceCounts(checkReplay(e, sys, arrivals, ls.catalog))

	before, err := ls.scrape()
	if err != nil {
		return err
	}
	qs := startQueueSampler(e, ls.srv)
	// outs are all requests, measured those the metrics come from: all of
	// them, or on a traced run the unprofiled first half.
	var outs, measured []reqOutcome
	var late []float64
	var measuredCPUMs float64
	st, err := measure(func() error {
		c0 := cpuMs()
		if !e.traced {
			outs, late = openLoop(ls, arrivals, nil)
			measured, measuredCPUMs = outs, cpuMs()-c0
			return nil
		}
		// The traced run sends the schedule's first half unprofiled, as the
		// reference, and its second half under the profiler. The profiler
		// starts between the halves, so its set-up cannot make a send late.
		half := len(arrivals) / 2
		first, lateFirst := openLoop(ls, arrivals[:half], nil)
		measuredCPUMs = cpuMs() - c0
		if err := e.prof.start(); err != nil {
			return err
		}
		second, lateSecond := openLoop(ls, arrivals[half:], e.spans)
		if err := e.prof.stop(e, len(second)); err != nil {
			return err
		}
		e.set("trace.overhead_pct", 100*(median(e2eOf(second))/median(e2eOf(first))-1))
		outs, late = append(first, second...), append(lateFirst, lateSecond...)
		measured = first
		return nil
	})
	if err != nil {
		return err
	}
	qs.stop(e)
	after, err := ls.scrape()
	if err != nil {
		return err
	}
	l := summarizeLateness(late)
	e.set("gen.late_p99_ms", l.P99Ms)
	e.set("gen.late_max_ms", l.MaxMs)
	e.note("generator lateness over %d sends: p99 %.3f ms, max %.3f ms (bounds %.1f / %.1f ms)",
		l.N, l.P99Ms, l.MaxMs, lateP99BoundMs, lateMaxBoundMs)
	if !l.valid() {
		e.fail("invalid run: the open-loop generator fell behind its schedule (p99 %.3f ms, max %.3f ms late)", l.P99Ms, l.MaxMs)
	}
	replies := checkOutcomes(e, outs)
	var done int
	var lastReply float64
	var overhead []float64
	for _, o := range measured {
		if o.Err == nil {
			done++
			lastReply = max(lastReply, o.ReplyMs)
			overhead = append(overhead, o.ReplyMs-o.DueMs-openTimeScale*o.Reply.E2EMs)
		}
	}
	e.set("req_per_s", float64(done)/(lastReply/1000))
	e.setOverhead(overhead)
	e.set("allocs_per_req", float64(st.Allocs)/float64(max(len(outs), 1)))
	e.set("cpu_us_per_req", 1000*measuredCPUMs/float64(max(len(measured), 1)))
	e.set("peak_heap_mb", st.PeakMB)
	e.setOpenQoS(openBlocks(measured, ls.catalog))
	e.setRegistryMetrics(before, after, replies, openDevices, st.WallMs, openTimeScale)
	e.set("serve.overhead_virtual_ms_p50", e.metrics["serve.overhead_p50_ms"]/openTimeScale)
	if err := resetup(e, spec); err != nil {
		return err
	}
	checkShutdown(e, ls, baseline)
	return nil
}

// openLoop sends every arrival at its due wall time, openLeadMs plus
// TimeScale times its offset from the first arrival, on client
// ID % nproc, and waits for every reply. It returns the outcomes, with
// times in ms since the loop's epoch, and each send's lateness in ms.
func openLoop(ls *liveServer, arrivals []workload.Arrival, spans *spanRecorder) ([]reqOutcome, []float64) {
	outs := make([]reqOutcome, len(arrivals))
	late := make([]float64, len(arrivals))
	if len(arrivals) == 0 {
		return outs, late
	}
	sem := make(chan struct{}, openMaxInflight)
	var wg sync.WaitGroup
	epoch := wallNow()
	at := func(ms float64) time.Time { return epoch.Add(time.Duration(ms * float64(time.Millisecond))) }
	t0 := arrivals[0].AtMs
	for i, a := range arrivals {
		due := openLeadMs + (a.AtMs-t0)*openTimeScale
		if wait := due - sinceMs(epoch); wait > 0 {
			sleep(time.Duration(wait * float64(time.Millisecond)))
		}
		sem <- struct{}{}
		sent := sinceMs(epoch)
		late[i] = sent - due
		lane := a.ID % len(ls.clients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rep, err := ls.clients[lane].Infer(a.Model)
			reply := sinceMs(epoch)
			outs[i] = reqOutcome{Model: a.Model, DueMs: due, ReplyMs: reply, Reply: rep, Err: err}
			spans.add(span{Name: "request", ReqID: a.ID, Lane: lane + 1, Start: at(due), End: at(reply)})
			spans.add(span{Name: "gen.late", Parent: "request", ReqID: a.ID, Lane: lane + 1, Start: at(due), End: at(sent)})
			spans.add(span{Name: "serve.Client.Infer", Parent: "request", ReqID: a.ID, Lane: lane + 1, Start: at(sent), End: at(reply)})
		}()
	}
	wg.Wait()
	return outs, late
}

func e2eOf(outs []reqOutcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.Err == nil {
			xs = append(xs, o.ReplyMs-o.DueMs)
		}
	}
	return xs
}
