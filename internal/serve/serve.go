// Package serve is the online serving path of SPLIT (§4.1-4.2), realized
// with Go's net/rpc: a Responder accepts user requests over RPC and appends
// them to the request queue; the Request Wrapper turns them into
// block-granular scheduler requests using the deployed split plans; the
// Token Scheduler orders the queue with the greedy preemption algorithm; the
// Token Assigner hands the token to the highest-priority request, whose next
// block then occupies the (simulated) device for its profiled duration; the
// Responder finally returns the inference result to the user.
//
// The scheduling decisions themselves are policy.Engine's — the same
// engine the discrete-event simulator drives — so the server owns only
// the clock, the lane executors, RPC, drain/stop and observability.
//
// Block execution is wall-clock: a block of d ms holds the device for
// d·TimeScale real milliseconds, so TimeScale=1 serves in true Jetson-Nano
// time and small TimeScale values accelerate tests.
//
// Beyond the paper, the package hardens the request lifecycle for overload
// and shutdown: per-request deadlines derived from α·t_ext with expiry
// sweeps that shed doomed requests at block boundaries, client cancellation
// (an RPC plus connection-loss detection), graceful drain with a bounded
// timeout, and deterministic fault injection with bounded per-block retry.
// Every terminal outcome is a typed error, a split_drops_total reason, and
// a trace event.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
)

// Typed rejection and shedding errors, so clients and metrics can
// distinguish drop causes. net/rpc flattens errors to strings on the wire,
// so the messages are stable and prefix-matchable; in-process callers can
// use errors.Is.
var (
	// ErrNotStarted rejects requests arriving before Start: the virtual
	// clock has no epoch yet, so enqueueing would record garbage times.
	ErrNotStarted = errors.New("serve: server not started")
	// ErrStopped rejects requests arriving at a stopped server.
	ErrStopped = errors.New("serve: server stopped")
	// ErrUnknownModel rejects requests naming a model not in the catalog.
	ErrUnknownModel = errors.New("serve: model not deployed")
	// ErrQueueFull rejects requests when Options.MaxQueue is reached.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDeadlineExceeded sheds requests whose deadline passed before they
	// could finish; they never occupy the device for another block.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	// ErrCanceled sheds requests canceled by the client (an explicit
	// Cancel call or a lost connection).
	ErrCanceled = errors.New("serve: request canceled")
	// ErrDrained sheds requests still queued when a graceful drain hit its
	// timeout.
	ErrDrained = errors.New("serve: shed by drain timeout")
	// ErrDeviceFault sheds requests whose block kept failing past the
	// injected-fault retry budget.
	ErrDeviceFault = errors.New("serve: device fault")
	// ErrAdmissionRejected rejects requests at the front door when the
	// fleet.Admission gate decides the fleet cannot absorb them (token
	// bucket empty, queue over its cap, or predicted RR past the limit).
	ErrAdmissionRejected = errors.New("serve: admission rejected")
)

// IsShed reports whether err is one of the lifecycle shed/rejection
// outcomes — deadline, cancellation, drain, device fault, or server
// shutdown — as opposed to a transport or usage error. It matches both
// in-process errors (errors.Is) and errors flattened to strings by the
// RPC layer (prefix match on the stable messages above).
func IsShed(err error) bool {
	if err == nil {
		return false
	}
	for _, e := range []error{ErrStopped, ErrDeadlineExceeded, ErrCanceled, ErrDrained, ErrDeviceFault} {
		if errors.Is(err, e) || strings.HasPrefix(err.Error(), e.Error()) {
			return true
		}
	}
	return false
}

// Drop reasons as they appear in the split_drops_total metric and in
// trace.Drop / trace.Shed event details. The reasons the simulator also
// reports alias the shared trace.Reason* vocabulary so the two layers
// cannot drift apart; the rest are serve-only lifecycle reasons.
const (
	DropStopped      = "stopped"
	DropUnknownModel = "unknown_model"
	DropQueueFull    = "queue_full"
	DropNotStarted   = "not_started"
	DropDeadline     = trace.ReasonDeadline
	DropCanceled     = trace.ReasonCanceled
	DropDrained      = "drained"
	DropDeviceFault  = trace.ReasonDeviceFault
	DropAdmission    = trace.ReasonAdmission
)

// outcome is what a waiter receives: the completed request, or a typed
// terminal error (deadline, cancel, drain, stop, device fault).
type outcome struct {
	req *sched.Request
	err error
}

// delivery pairs a waiter channel with its outcome. Like trace events,
// deliveries are buffered while s.mu is held and sent only after it is
// released; the channels are buffered (capacity 1, one send each), so the
// sends can never block the serving path either way.
type delivery struct {
	ch  chan outcome
	out outcome
}

// Server drives the scheduling engine from one executor goroutine per
// lane (device, or device partition under spatial sharing), all sharing
// one mutex and condition variable.
type Server struct {
	cfg   Options
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// eng makes every scheduling decision; it is only touched with mu held.
	eng     *policy.Engine
	nextID  int
	closed  bool
	served  int
	dropped int
	// running counts live executor goroutines; the last one to exit under a
	// drain owns the clean DrainEnd event.
	running int
	// draining is true between a Drain call and either the backlog
	// emptying or the drain timeout shedding it.
	draining bool
	// stopReason is the shed reason applied to in-flight requests when the
	// server closes under them ("stopped", or "drained" once a drain times
	// out).
	stopReason string
	// elasticSuppressed is the last §3.3 decision for a splittable arrival:
	// true while the elastic mechanism is disabling splitting.
	elasticSuppressed bool
	waiters           map[int]chan outcome
	// perModel accumulates QoS aggregates per model since start.
	perModel map[string]*modelAgg
	// busyMs accumulates virtual-ms occupancy per lane, pro-rated by the
	// granted device fraction.
	busyMs []float64

	// pending buffers trace events recorded while s.mu is held. The sink is
	// caller-supplied code that may take its own locks or call back into the
	// server, so events are flushed to Options.Sink only after s.mu is
	// released (the engine's and the queues' emissions are routed here).
	pending []trace.Event
	// pendingOut buffers waiter deliveries the same way.
	pendingOut []delivery

	// met holds cached metric handles (nil when Options.Obs is nil); qos is
	// the rolling online estimator and always exists, as does series, the
	// windowed trajectory behind /timeseriesz.
	met    *serveMetrics
	qos    *obs.RollingQoS
	series *obs.TimeSeries

	listener net.Listener
	wg       sync.WaitGroup
}

// newServer validates assembled options and builds a stopped server.
func newServer(cfg Options) (*Server, error) {
	if len(cfg.Catalog) == 0 {
		return nil, errors.New("serve: empty catalog")
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 4
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	s := &Server{
		waiters:    make(map[int]chan outcome),
		perModel:   make(map[string]*modelAgg),
		stopReason: DropStopped,
	}
	var sink trace.Sink
	if cfg.Sink != nil {
		sink = pendingSink{s}
	}
	eng, err := policy.NewEngine(cfg.Config, cfg.Catalog, false, (*observer)(s), sink)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// The engine holds Fleet.Max devices when autoscaling.
	cfg.Devices = eng.Devices()
	s.cfg, s.eng = cfg, eng
	s.busyMs = make([]float64, eng.Lanes())
	s.qos = obs.NewRollingQoS(cfg.Alpha, cfg.QoSWindow)
	s.series = obs.NewTimeSeries(cfg.Alpha, 0, 0, cfg.Devices)
	if cfg.Sink != nil {
		for lane := 0; lane < eng.Lanes(); lane++ {
			eng.Queue(lane).Sink = queueSink{s, lane / eng.Parts(), lane % eng.Parts()}
		}
	}
	if cfg.Obs != nil {
		s.met = newServeMetrics(cfg.Obs, cfg.Catalog, cfg.Devices, eng.Parts(), cfg.BatchMax > 1,
			cfg.Fleet.Enabled(), cfg.Admission.Enabled())
		if s.met.fleetActive != nil {
			s.met.fleetActive.SetInt(eng.Active())
		}
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// observer receives the engine's decisions on the server's behalf: it is
// the Server itself, converted so that the policy.Observer methods stay
// off the Server's public API. Every call happens with s.mu held.
type observer Server

// Served records a completion: per-model aggregates, rolling QoS, metrics
// and the waiter's delivery.
func (o *observer) Served(r *sched.Request, now float64) {
	s := (*Server)(o)
	s.served++
	agg := s.perModel[r.Model]
	if agg == nil {
		agg = &modelAgg{}
		s.perModel[r.Model] = agg
	}
	rr := r.ResponseRatio()
	agg.served++
	agg.sumRR += rr
	if rr > agg.maxRR {
		agg.maxRR = rr
	}
	agg.sumWaitMs += r.E2EMs() - r.ExtMs
	if rr > s.cfg.Alpha {
		agg.violations++
	}
	agg.preempts += r.Preemptions
	rec := policy.NewRecord(r, now, policy.OutcomeServed)
	s.qos.Observe(rec)
	s.series.ObserveOutcome(rec)
	if s.met != nil {
		s.met.completions[r.Model].Inc()
		s.met.waitMs.Observe(r.E2EMs() - r.ExtMs)
		s.met.e2eMs.Observe(r.E2EMs())
		s.met.rr.Observe(rr)
		s.met.setQoS(s.qos)
	}
	s.resolveLocked(r.ID, outcome{req: r})
}

// Shed records a post-enqueue drop and resolves the waiter with the typed
// cause. Sheds enter the rolling QoS window with their drop reason as the
// record outcome: the live violation rate must count a deadline-shed
// request as a violated one, exactly as the offline harness does —
// otherwise heavy shedding *improves* the reported rolling QoS. The
// window's latency statistics skip non-served records.
func (o *observer) Shed(r *sched.Request, now float64, reason string) {
	s := (*Server)(o)
	s.dropped++
	rec := policy.NewRecord(r, now, reason)
	s.qos.Observe(rec)
	s.series.ObserveOutcome(rec)
	if s.met != nil {
		s.met.dropCounter(reason).Inc()
		if len(s.met.deviceDrops) > 0 {
			s.met.deviceDrops[r.Device].Inc()
		}
		s.met.setQoS(s.qos)
	}
	// The resolved error carries request identity for the client.
	s.resolveLocked(r.ID, outcome{err: fmt.Errorf("%w (request %d, %s)", codeToErr[reason], r.ID, r.Model)})
}

// Preempted counts a block-boundary preemption.
func (o *observer) Preempted(*sched.Request, float64) {
	if o.met != nil {
		o.met.preemptions.Inc()
	}
}

// Scaled tracks autoscaler actuations in the fleet metrics.
func (o *observer) Scaled(_ float64, out bool, active int) {
	if o.met == nil || o.met.fleetActive == nil {
		return
	}
	o.met.fleetActive.SetInt(active)
	if out {
		o.met.scaleOuts.Inc()
	} else {
		o.met.scaleIns.Inc()
	}
}

// Elastic tracks §3.3 elastic-mode transitions for the gauge and the
// event stream.
func (o *observer) Elastic(now float64, suppressed bool) {
	s := (*Server)(o)
	if s.met != nil {
		if suppressed {
			s.met.elastic.Set(1)
		} else {
			s.met.elastic.Set(0)
		}
	}
	if suppressed == s.elasticSuppressed {
		return
	}
	s.elasticSuppressed = suppressed
	kind := trace.ElasticOff
	if suppressed {
		kind = trace.ElasticOn
	}
	s.emit(trace.Event{AtMs: now, Kind: kind, ReqID: -1,
		Detail: fmt.Sprintf("depth=%d", s.eng.Depth())})
}

// dropsHelp is the split_drops_total help text; the family covers both
// pre-enqueue rejections and post-enqueue sheds, keyed by reason.
const dropsHelp = "requests dropped, by reason (rejections before enqueue and sheds after)"

// serveMetrics caches the registry handles the serving path updates, so the
// hot path never rebuilds label keys. The catalog is fixed at deploy time,
// which is what makes per-model precomputation possible; drop reasons are
// open-ended (callers and future outcomes add new ones), so dropCounter
// registers unseen reasons lazily instead of panicking on an unknown key.
type serveMetrics struct {
	reg         *obs.Registry
	requests    map[string]*obs.Counter
	completions map[string]*obs.Counter
	drops       map[string]*obs.Counter
	preemptions *obs.Counter
	retries     *obs.Counter
	queueDepth  *obs.Gauge
	elastic     *obs.Gauge
	violRate    *obs.Gauge
	jitter      *obs.Gauge
	waitMs      *obs.Histogram
	e2eMs       *obs.Histogram
	rr          *obs.Histogram
	// Per-device families, indexed by device ID. Registered only on fleets
	// (devices > 1) so single-device deployments keep today's exact
	// /metrics output.
	deviceDepth  []*obs.Gauge
	deviceBusyMs []*obs.Gauge
	deviceBlocks []*obs.Counter
	deviceDrops  []*obs.Counter
	// Batch families, registered only when micro-batching is enabled
	// (BatchMax > 1), for the same reason: deployments that never batch
	// keep their exact /metrics output.
	batchedBlocks *obs.Counter
	batchSize     *obs.Histogram
	// Control-plane families, registered only when the autoscaler /
	// admission gate is enabled, again to keep fixed deployments' /metrics
	// output byte-stable.
	fleetActive *obs.Gauge
	scaleOuts   *obs.Counter
	scaleIns    *obs.Counter
	admitted    *obs.Counter
	// Spatial-sharing families, indexed by lane (device*parts+part) and
	// registered only when Partitions > 1, so temporal deployments keep
	// their exact /metrics output. Busy-ms is pro-rated by the granted
	// fraction; width is the slot count of the most recent hold.
	partBusyMs []*obs.Gauge
	partBlocks []*obs.Counter
	partWidth  []*obs.Gauge
}

func newServeMetrics(reg *obs.Registry, catalog policy.Catalog, devices, parts int, batching, elastic, admission bool) *serveMetrics {
	m := &serveMetrics{
		reg:         reg,
		requests:    make(map[string]*obs.Counter, len(catalog)),
		completions: make(map[string]*obs.Counter, len(catalog)),
		drops:       make(map[string]*obs.Counter, 8),
		preemptions: reg.Counter(obs.MetricPreemptions, "block-boundary preemptions (requests passed while re-entering the queue)"),
		retries:     reg.Counter(obs.MetricBlockRetries, "block re-executions after injected transient device failures"),
		queueDepth:  reg.Gauge(obs.MetricQueueDepth, "requests waiting in the scheduler queue"),
		elastic:     reg.Gauge(obs.MetricElasticSuppress, "1 while the elastic mechanism is suppressing splitting (§3.3), else 0"),
		violRate:    reg.Gauge(obs.MetricViolationRate, "fraction of the rolling completion window with RR > α"),
		jitter:      reg.Gauge(obs.MetricJitterMs, "stddev of e2e latency over the rolling completion window"),
		waitMs:      reg.Histogram(obs.MetricWaitMs, "waiting latency (e2e - t_ext) of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		e2eMs:       reg.Histogram(obs.MetricE2EMs, "end-to-end latency of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		rr:          reg.Histogram(obs.MetricResponseRatio, "response ratio t_ete/t_ext of completed requests", obs.DefaultRatioBuckets()),
	}
	for name := range catalog {
		m.requests[name] = reg.Counter(obs.MetricRequestsTotal, "requests accepted into the queue", "model", name)
		m.completions[name] = reg.Counter(obs.MetricCompletionsTotal, "requests completed", "model", name)
	}
	for _, reason := range []string{
		DropStopped, DropUnknownModel, DropQueueFull, DropNotStarted,
		DropDeadline, DropCanceled, DropDrained, DropDeviceFault,
	} {
		m.drops[reason] = reg.Counter(obs.MetricDropsTotal, dropsHelp, "reason", reason)
	}
	if devices > 1 {
		for i := 0; i < devices; i++ {
			d := strconv.Itoa(i)
			m.deviceDepth = append(m.deviceDepth,
				reg.Gauge(obs.MetricDeviceQueueDepth, "requests waiting per fleet device", "device", d))
			m.deviceBusyMs = append(m.deviceBusyMs,
				reg.Gauge(obs.MetricDeviceBusyMs, "cumulative virtual-ms block occupancy per fleet device", "device", d))
			m.deviceBlocks = append(m.deviceBlocks,
				reg.Counter(obs.MetricDeviceBlocks, "blocks executed per fleet device", "device", d))
			m.deviceDrops = append(m.deviceDrops,
				reg.Counter(obs.MetricDeviceDrops, "post-enqueue sheds per fleet device", "device", d))
		}
	}
	if batching {
		m.batchedBlocks = reg.Counter(obs.MetricBatchedBlocks, "device grants that executed a same-type micro-batch (size > 1)")
		m.batchSize = reg.Histogram(obs.MetricBatchSize, "members per batched device grant",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	}
	if elastic {
		m.fleetActive = reg.Gauge(obs.MetricFleetActive, "devices in the actively placed fleet prefix")
		m.scaleOuts = reg.Counter(obs.MetricAutoscaleEvents, "autoscaler actuations, by direction", "direction", "out")
		m.scaleIns = reg.Counter(obs.MetricAutoscaleEvents, "autoscaler actuations, by direction", "direction", "in")
	}
	if admission {
		m.admitted = reg.Counter(obs.MetricAdmittedTotal, "requests admitted through the front-door gate")
		m.drops[DropAdmission] = reg.Counter(obs.MetricDropsTotal, dropsHelp, "reason", DropAdmission)
	}
	if parts > 1 {
		for i := 0; i < devices; i++ {
			for p := 0; p < parts; p++ {
				d, pt := strconv.Itoa(i), strconv.Itoa(p)
				m.partBusyMs = append(m.partBusyMs,
					reg.Gauge(obs.MetricPartitionBusyMs, "virtual-ms occupancy per partition lane, pro-rated by granted fraction", "device", d, "part", pt))
				m.partBlocks = append(m.partBlocks,
					reg.Counter(obs.MetricPartitionBlocks, "blocks executed per partition lane", "device", d, "part", pt))
				m.partWidth = append(m.partWidth,
					reg.Gauge(obs.MetricPartitionWidth, "slot width of the lane's most recent hold", "device", d, "part", pt))
			}
		}
	}
	return m
}

// setQoS refreshes the rolling violation-rate and jitter gauges.
func (m *serveMetrics) setQoS(qos *obs.RollingQoS) {
	vr, jit := qos.Gauges()
	m.violRate.Set(vr)
	m.jitter.Set(jit)
}

// refreshDepth refreshes the fleet-wide queue-depth gauge and, on fleets,
// the per-device one (summing the device's partition lanes). Caller holds
// s.mu.
func (s *Server) refreshDepth(dev int) {
	if s.met == nil {
		return
	}
	s.met.queueDepth.SetInt(s.eng.Depth())
	if len(s.met.deviceDepth) > 0 {
		s.met.deviceDepth[dev].SetInt(s.eng.DeviceDepth(dev))
	}
}

// refreshDepths refreshes every queue-depth gauge. Caller holds s.mu.
func (s *Server) refreshDepths() {
	for dev := 0; dev < s.eng.Devices(); dev++ {
		s.refreshDepth(dev)
	}
}

// dropCounter returns the drops counter for reason, registering reasons
// not pre-seeded in newServeMetrics on first use — an unknown reason must
// cost one registry lookup, not a nil-map panic on the serving path.
// Caller holds s.mu, which also serializes access to the map.
func (m *serveMetrics) dropCounter(reason string) *obs.Counter {
	if c := m.drops[reason]; c != nil {
		return c
	}
	c := m.reg.Counter(obs.MetricDropsTotal, dropsHelp, "reason", reason)
	m.drops[reason] = c
	return c
}

// emit records a live event for the configured sink, if any. Caller holds
// s.mu; the event reaches the sink at the next takeOut/deliver pair.
func (s *Server) emit(e trace.Event) {
	if s.cfg.Sink != nil {
		s.pending = append(s.pending, e)
	}
}

// pendingSink routes the engine's event stream into the server's pending
// buffer: the engine only runs with s.mu held, so its emissions must be
// buffered.
type pendingSink struct{ s *Server }

func (ps pendingSink) Emit(e trace.Event) { ps.s.pending = append(ps.s.pending, e) }

// queueSink adapts a lane queue's event stream (enqueue positions) into
// the server's pending buffer, stamping the owning device and partition.
type queueSink struct {
	s    *Server
	dev  int
	part int
}

func (qs queueSink) Emit(e trace.Event) {
	e.Device = qs.dev
	e.Part = qs.part
	qs.s.pending = append(qs.s.pending, e)
}

// takeOut hands the buffered events and waiter deliveries to the caller
// and resets the buffers. Caller holds s.mu and passes the result to
// deliver after unlocking.
func (s *Server) takeOut() ([]trace.Event, []delivery) {
	evs, dels := s.pending, s.pendingOut
	s.pending, s.pendingOut = nil, nil
	return evs, dels
}

// deliver forwards buffered events to the sink and buffered outcomes to
// their waiters. Caller must NOT hold s.mu.
func (s *Server) deliver(evs []trace.Event, dels []delivery) {
	for _, e := range evs {
		s.cfg.Sink.Emit(e)
	}
	for _, d := range dels {
		d.ch <- d.out
	}
}

// drop counts and traces one pre-enqueue rejection. Caller holds s.mu.
func (s *Server) drop(nowMs float64, modelName, reason string) {
	s.dropped++
	if s.met != nil {
		s.met.dropCounter(reason).Inc()
	}
	s.emit(trace.Event{AtMs: nowMs, Kind: trace.Drop, ReqID: -1, Model: modelName, Detail: reason})
}

// resolveLocked queues the waiter's outcome for delivery and forgets the
// waiter. Caller holds s.mu.
func (s *Server) resolveLocked(id int, out outcome) {
	ch, ok := s.waiters[id]
	if !ok {
		return
	}
	delete(s.waiters, id)
	s.pendingOut = append(s.pendingOut, delivery{ch, out})
}

// modelAgg accumulates per-model QoS outcomes (under s.mu).
type modelAgg struct {
	served     int
	sumRR      float64
	maxRR      float64
	sumWaitMs  float64
	violations int // RR > α
	preempts   int
}

// nowMs returns milliseconds of virtual time since the server started, or
// 0 before Start: time.Since on the zero epoch would report decades of
// garbage uptime, poisoning every ArriveMs/WaitedMs derived from it.
func (s *Server) nowMs() float64 {
	if s.start.IsZero() {
		return 0
	}
	return float64(time.Since(s.start)) / float64(time.Millisecond) / s.cfg.TimeScale
}

// Start begins serving RPCs on l and launches the lane executors. It
// returns immediately; Stop or Drain shuts everything down.
func (s *Server) Start(l net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return errors.New("serve: already started")
	}
	s.start = time.Now()
	s.listener = l
	lanes := s.eng.Lanes()
	s.running = lanes
	s.wg.Add(1 + lanes)
	go s.acceptLoop()
	for lane := 0; lane < lanes; lane++ {
		go s.executor(lane)
	}
	return nil
}

// Addr returns the listening address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Stop closes the listener, sheds every queued request with ErrStopped,
// and stops the executors after their current block — whose request is
// NOT shed: if that block completes its plan, the completion is delivered
// to its client, otherwise the client receives ErrStopped at the boundary.
// For a shutdown that finishes the backlog first, use Drain.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.eng.ShedQueued(s.nowMs(), DropStopped)
	s.refreshDepths()
	s.cond.Broadcast()
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	s.wg.Wait()
}

// Drain stops accepting new work and lets the executors finish the
// backlog. If the backlog is not done within timeout, every still-queued
// request is shed with ErrDrained and the in-flight requests are shed at
// their next block boundary (or delivered, if that boundary completes
// them). Drain returns the number of requests shed, 0 for a clean drain.
// Calling Drain on an already-closed server just waits for shutdown to
// finish.
func (s *Server) Drain(timeout time.Duration) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return 0
	}
	s.closed = true
	s.draining = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.emit(trace.Event{AtMs: s.nowMs(), Kind: trace.DrainStart, ReqID: -1,
		Detail: fmt.Sprintf("depth=%d timeout=%s", s.eng.Depth(), timeout)})
	s.cond.Broadcast()
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return 0
	case <-time.After(timeout):
	}

	// Timed out: shed the backlog and demote the in-flight requests'
	// eventual boundary outcome to "drained".
	s.mu.Lock()
	shed := 0
	if s.draining {
		s.draining = false
		s.stopReason = DropDrained
		now := s.nowMs()
		shed = s.eng.ShedQueued(now, DropDrained)
		s.refreshDepths()
		s.emit(trace.Event{AtMs: now, Kind: trace.DrainEnd, ReqID: -1,
			Detail: fmt.Sprintf("timeout, shed=%d", shed)})
		s.cond.Broadcast()
	}
	evs, dels = s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	<-done
	return shed
}

// Cancel removes a queued request (its client receives ErrCanceled) or
// marks an in-flight request cancel-at-next-boundary, and reports which.
// Unknown IDs — never enqueued, already completed, already shed — return
// CancelUnknown.
func (s *Server) Cancel(id int) CancelState {
	return s.cancel(id, "client cancel")
}

// CancelState reports what a cancellation found.
type CancelState string

// Cancel outcomes.
const (
	// CancelQueued: the request was waiting and has been removed and shed.
	CancelQueued CancelState = policy.CanceledQueued
	// CancelInflight: the request is executing a block; it will be shed at
	// the next block boundary instead of continuing its plan.
	CancelInflight CancelState = policy.CanceledInflight
	// CancelUnknown: no pending request with that ID.
	CancelUnknown CancelState = "unknown"
)

func (s *Server) cancel(id int, why string) CancelState {
	s.mu.Lock()
	now := s.nowMs()
	state, marked := s.eng.Cancel(id, now, why)
	if marked && s.cfg.ArrivalRecorder != nil {
		s.cfg.ArrivalRecorder.ObserveCancel(id, now)
	}
	if state == policy.CanceledQueued {
		s.refreshDepths()
	}
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	if state == "" {
		return CancelUnknown
	}
	return CancelState(state)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serveConn(conn)
	}
}

// serveConn serves one client connection with its own Responder, so that
// requests submitted on the connection can be canceled when it drops: a
// client that goes away must not keep occupying the device or the queue.
func (s *Server) serveConn(conn net.Conn) {
	resp := newResponder(s)
	rs := rpc.NewServer()
	if err := rs.RegisterName("SPLIT", resp); err != nil {
		conn.Close()
		return
	}
	rs.ServeConn(conn)
	resp.cancelOrphans()
}

// executor is one lane's token assigner: it repeatedly asks the engine for
// the lane's next grant, holds the device for the grant's wall-clock
// duration with s.mu released, and settles the grant at the boundary. All
// lock transitions stay in this function so the buffered events and
// outcomes are always flushed with s.mu released.
//
//lint:hotpath the executor loop is the serving-path grant loop: one iteration per device hold
func (s *Server) executor(lane int) {
	defer s.wg.Done()
	dev := lane / s.eng.Parts()
	// Label the executor goroutine so CPU/goroutine profiles from
	// /debug/pprof split by device; per-block model/phase labels are applied
	// around the device hold below.
	idleCtx := pprof.WithLabels(context.Background(),
		pprof.Labels("subsystem", "executor", "device", strconv.Itoa(dev)))
	pprof.SetGoroutineLabels(idleCtx)
	defer pprof.SetGoroutineLabels(context.Background())
	// Hold label sets are built once per (model, block) and reused.
	//lint:ignore hotalloc one label cache per executor goroutine, filled once per (model, block)
	holdCtx := make(map[holdLabel]context.Context)
	s.mu.Lock()
	for {
		start := s.nowMs()
		var g *policy.Grant
		if !s.closed || s.draining {
			waiting := s.eng.Queue(lane).Len()
			g = s.eng.Grant(lane, start)
			if s.eng.Queue(lane).Len() != waiting {
				s.refreshDepth(dev)
			}
		}
		if g == nil {
			// No grant: an empty queue OR a covered anchor slot; a draining
			// lane that still holds work is the latter and must wait for the
			// sibling's release, not exit.
			if s.closed && (!s.draining || s.eng.Queue(lane).Len() == 0) {
				// Stopped, or draining with this lane's backlog empty: exit.
				// The last executor out of a drain owns the clean DrainEnd —
				// earlier exits would end the drain while other lanes still
				// hold work.
				s.running--
				if s.draining && s.running == 0 {
					s.draining = false
					s.emit(trace.Event{AtMs: s.nowMs(), Kind: trace.DrainEnd, ReqID: -1, Detail: "clean"})
				}
				evs, dels := s.takeOut()
				s.mu.Unlock()
				s.deliver(evs, dels)
				return
			}
			// Idle. Flush buffered events and outcomes before blocking: a
			// shed client must not wait for the next arrival to learn its
			// fate.
			if len(s.pending) > 0 || len(s.pendingOut) > 0 {
				evs, dels := s.takeOut()
				s.mu.Unlock()
				s.deliver(evs, dels)
				s.mu.Lock()
				continue
			}
			s.cond.Wait()
			continue
		}
		if n := g.Size(); n > 1 && s.met != nil && s.met.batchedBlocks != nil {
			s.met.batchedBlocks.Inc()
			s.met.batchSize.Observe(float64(n))
		}
		// The device hold is the executor's hot phase: label it with the
		// model and block so profiles attribute occupancy causally.
		key := holdLabel{g.Leader().Model, g.Block()}
		ctx := holdCtx[key]
		if ctx == nil {
			ctx = pprof.WithLabels(idleCtx, pprof.Labels("phase", "exec", "model", key.model, "block", strconv.Itoa(key.block)))
			holdCtx[key] = ctx
		}
		end := start
		for {
			evs, dels := s.takeOut()
			s.mu.Unlock()
			s.deliver(evs, dels)
			pprof.SetGoroutineLabels(ctx)
			time.Sleep(time.Duration(g.HoldMs() * s.cfg.TimeScale * float64(time.Millisecond)))
			pprof.SetGoroutineLabels(idleCtx)
			s.mu.Lock()
			end = s.nowMs()
			stop := ""
			if s.closed && !s.draining {
				stop = s.stopReason
			}
			if !s.eng.Settle(g, end, stop) {
				break
			}
			if s.met != nil {
				s.met.retries.Inc()
			}
		}
		// Busy-ms pro-rates by the occupied fraction so per-device sums stay
		// comparable between temporal and spatial runs.
		held := (end - start) * g.Frac()
		s.busyMs[lane] += held
		//lint:ignore hotalloc lazy per-window busy buckets: one make per elapsed time window, not per hold
		s.series.ObserveBusyFrac(dev, start, end, g.Frac())
		if s.met != nil && len(s.met.deviceBusyMs) > 0 {
			s.met.deviceBusyMs[dev].Add(held)
			s.met.deviceBlocks[dev].Inc()
		}
		if s.met != nil && len(s.met.partBusyMs) > 0 {
			s.met.partBusyMs[lane].Add(held)
			s.met.partBlocks[lane].Inc()
			s.met.partWidth[lane].SetInt(int(g.Frac()*float64(s.eng.Parts()) + 0.5))
		}
		s.refreshDepth(dev) // Settle may have re-inserted preempted work
		if s.eng.Parts() > 1 {
			// Sibling lanes may have been waiting for covered anchor slots.
			s.cond.Broadcast()
		}
		evs, dels := s.takeOut()
		s.mu.Unlock()
		s.deliver(evs, dels)
		s.mu.Lock()
	}
}

// holdLabel keys an executor's cached profiler label sets.
type holdLabel struct {
	model string
	block int
}

// enqueue wraps a model request (request wrapper + token scheduler insert)
// and returns the request ID and the channel that will deliver the
// outcome. deadlineMs > 0 sets a client-supplied deadline that many
// virtual milliseconds after arrival. Every rejection path is typed and
// counted so live metrics can distinguish causes.
func (s *Server) enqueue(modelName string, deadlineMs float64) (int, chan outcome, error) {
	s.mu.Lock()
	id, ch, err := s.enqueueLocked(modelName, deadlineMs)
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	return id, ch, err
}

// enqueueLocked is the body of enqueue. Caller holds s.mu.
func (s *Server) enqueueLocked(modelName string, deadlineMs float64) (int, chan outcome, error) {
	now := s.nowMs()
	if s.start.IsZero() {
		s.drop(now, modelName, DropNotStarted)
		return 0, nil, ErrNotStarted
	}
	if s.closed {
		s.drop(now, modelName, DropStopped)
		return 0, nil, ErrStopped
	}
	if _, ok := s.cfg.Catalog[modelName]; !ok {
		s.drop(now, modelName, DropUnknownModel)
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	// The front door runs in two engine steps so the legacy queue cap sits
	// between them: admission + autoscale, then placement + insertion.
	ok, detail := s.eng.Admit(-1, modelName, now)
	if !ok {
		s.dropped++
		if s.met != nil {
			s.met.dropCounter(DropAdmission).Inc()
		}
		return 0, nil, fmt.Errorf("%w (%s: %s)", ErrAdmissionRejected, modelName, detail)
	}
	if s.met != nil && s.met.admitted != nil {
		s.met.admitted.Inc()
	}
	if depth := s.eng.Depth(); s.cfg.MaxQueue > 0 && depth >= s.cfg.MaxQueue {
		s.drop(now, modelName, DropQueueFull)
		return 0, nil, fmt.Errorf("%w: %d waiting", ErrQueueFull, depth)
	}
	id := s.nextID
	s.nextID++
	if s.met != nil {
		s.met.requests[modelName].Inc()
	}
	r := s.eng.Arrive(id, modelName, deadlineMs, now)
	s.series.ObserveArrival(now)
	s.series.ObserveDepth(now, s.eng.Depth())
	s.refreshDepth(r.Device)
	ch := make(chan outcome, 1)
	s.waiters[id] = ch
	if s.cfg.ArrivalRecorder != nil {
		s.cfg.ArrivalRecorder.Observe(id, modelName, now, deadlineMs)
	}
	// Broadcast, not Signal: only the placed lane's executor can run this
	// request, and Signal could wake a different one.
	s.cond.Broadcast()
	return id, ch, nil
}

// QueuedRequest is one waiting request in a QueueSnapshot.
type QueuedRequest struct {
	ID          int                `json:"id"`
	Model       string             `json:"model"`
	Class       model.RequestClass `json:"class"`
	Pos         int                `json:"pos"`
	BlocksDone  int                `json:"blocks_done"`
	BlocksTotal int                `json:"blocks_total"`
	WaitedMs    float64            `json:"waited_ms"`
	// CurrentRR is the plain response ratio the request would finish with
	// if it ran its remaining blocks immediately (PredictedPlainRR with
	// zero extra wait) — the live Figure 6 axis value.
	CurrentRR   float64 `json:"current_rr"`
	Preemptions int     `json:"preemptions"`
	// DeadlineMs is the absolute virtual-time deadline, 0 when none.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Device is the fleet device the request is queued on (omitted on
	// single-device deployments, where it is always 0).
	Device int `json:"device,omitempty"`
	// Part is the partition lane the request is queued on (omitted on
	// unpartitioned deployments, where it is always 0).
	Part int `json:"part,omitempty"`
}

// DeviceSnapshot is one fleet device's live state in a QueueSnapshot.
type DeviceSnapshot struct {
	Device int `json:"device"`
	// Part is the partition lane this row describes; unpartitioned fleets
	// have one row per device with Part 0 (omitted).
	Part  int  `json:"part,omitempty"`
	Depth int  `json:"depth"`
	Busy  bool `json:"busy"`
	// InflightID is the executing request's ID, -1 while idle.
	InflightID int `json:"inflight_id"`
	// BusyMsTotal is cumulative virtual-ms block occupancy.
	BusyMsTotal float64 `json:"busy_ms_total"`
}

// QueueSnapshot is the /queuez payload: the live queue plus rolling QoS.
type QueueSnapshot struct {
	NowMs             float64         `json:"now_ms"`
	Alpha             float64         `json:"alpha"`
	Depth             int             `json:"depth"`
	Busy              bool            `json:"busy"`
	Draining          bool            `json:"draining"`
	Served            int             `json:"served"`
	Dropped           int             `json:"dropped"`
	ElasticSuppressed bool            `json:"elastic_suppressed"`
	QoS               obs.QoSSnapshot `json:"qos"`
	Requests          []QueuedRequest `json:"requests"`
	// Placement and Devices describe the fleet; both omitted on
	// single-device deployments, whose payload is unchanged.
	Placement string           `json:"placement,omitempty"`
	Devices   []DeviceSnapshot `json:"devices,omitempty"`
	// ActiveDevices is the actively placed fleet prefix size; omitted
	// unless the autoscaler is enabled.
	ActiveDevices int `json:"active_devices,omitempty"`
}

// QueueSnapshot captures the live queue state for the admin endpoint. On a
// server that has not started, NowMs and all derived times are 0 rather
// than zero-epoch garbage.
func (s *Server) QueueSnapshot() QueueSnapshot {
	s.mu.Lock()
	now := s.nowMs()
	snap := QueueSnapshot{
		NowMs:             now,
		Alpha:             s.cfg.Alpha,
		Depth:             s.eng.Depth(),
		Draining:          s.draining,
		Served:            s.served,
		Dropped:           s.dropped,
		ElasticSuppressed: s.elasticSuppressed,
		Requests:          make([]QueuedRequest, 0, s.eng.Depth()),
	}
	lanes := s.eng.Lanes()
	for lane := 0; lane < lanes; lane++ {
		for i, r := range s.eng.Queue(lane).Requests() {
			snap.Requests = append(snap.Requests, QueuedRequest{
				ID:          r.ID,
				Model:       r.Model,
				Class:       r.Class,
				Pos:         i,
				BlocksDone:  r.Next,
				BlocksTotal: len(r.BlockTimes),
				WaitedMs:    now - r.ArriveMs,
				CurrentRR:   r.PredictedPlainRR(now, 0),
				Preemptions: r.Preemptions,
				DeadlineMs:  r.DeadlineMs,
				Device:      r.Device,
				Part:        r.Partition,
			})
		}
		if s.eng.Inflight(lane) != nil {
			snap.Busy = true
		}
	}
	if s.cfg.Fleet.Enabled() {
		snap.ActiveDevices = s.eng.Active()
	}
	if lanes > 1 {
		snap.Placement = s.eng.Placer().Name()
		parts := s.eng.Parts()
		for lane := 0; lane < lanes; lane++ {
			ds := DeviceSnapshot{Device: lane / parts, Part: lane % parts, Depth: s.eng.Queue(lane).Len(),
				InflightID: -1, BusyMsTotal: s.busyMs[lane]}
			if r := s.eng.Inflight(lane); r != nil {
				ds.Busy, ds.InflightID = true, r.ID
			}
			snap.Devices = append(snap.Devices, ds)
		}
	}
	s.mu.Unlock()
	// The rolling window has its own lock; read it outside s.mu.
	snap.QoS = s.qos.Snapshot()
	return snap
}

// RollingQoS exposes the online estimator (e.g. for tests comparing live
// numbers against offline metrics over the same records).
func (s *Server) RollingQoS() *obs.RollingQoS { return s.qos }

// TimeSeries snapshots the windowed QoS trajectory — the /timeseriesz
// payload: per-window throughput, viol@α, mean queue depth and per-device
// busy fractions in virtual time.
func (s *Server) TimeSeries() obs.TimeSeriesSnapshot { return s.series.Snapshot() }

// Health is the /healthz payload.
type Health struct {
	Status     string  `json:"status"` // "ok", "draining" or "stopped"
	UptimeS    float64 `json:"uptime_s"`
	Models     int     `json:"models"`
	Served     int     `json:"served"`
	Dropped    int     `json:"dropped"`
	QueueDepth int     `json:"queue_depth"`
	// Version and GoVersion identify the binary answering the probe (VCS
	// revision from the embedded build info; "unknown" without stamping).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// Health reports liveness for the admin endpoint.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Status:     "ok",
		Models:     len(s.cfg.Catalog),
		Served:     s.served,
		Dropped:    s.dropped,
		QueueDepth: s.eng.Depth(),
		Version:    obs.BuildVersion(),
		GoVersion:  runtime.Version(),
	}
	if !s.start.IsZero() {
		h.UptimeS = time.Since(s.start).Seconds()
	}
	if s.closed {
		h.Status = "stopped"
		if s.draining {
			h.Status = "draining"
		}
	}
	return h
}

// Responder is the RPC surface (§4.2 "Responder"): it accepts user
// requests, blocks until the scheduler completes or sheds them, and
// replies with the outcome. Each client connection gets its own Responder
// so that work submitted on a connection can be canceled when the
// connection is lost.
type Responder struct {
	srv *Server
	// mu guards calls: the requests submitted on this Responder's
	// connection whose outcomes have not yet been claimed.
	mu    sync.Mutex
	calls map[int]chan outcome
}

// newResponder builds the per-connection RPC handler.
func newResponder(s *Server) *Responder {
	return &Responder{srv: s, calls: make(map[int]chan outcome)}
}

func (r *Responder) track(id int, ch chan outcome) {
	r.mu.Lock()
	r.calls[id] = ch
	r.mu.Unlock()
}

func (r *Responder) untrack(id int) {
	r.mu.Lock()
	delete(r.calls, id)
	r.mu.Unlock()
}

// cancelOrphans cancels every request submitted on this Responder's
// connection that has not been delivered: the client is gone, so finishing
// its work would burn device time nobody will read.
func (r *Responder) cancelOrphans() {
	r.mu.Lock()
	ids := make([]int, 0, len(r.calls))
	for id := range r.calls {
		ids = append(ids, id)
	}
	r.calls = make(map[int]chan outcome)
	r.mu.Unlock()
	sort.Ints(ids) // deterministic cancel order for traces
	for _, id := range ids {
		r.srv.cancel(id, "connection lost")
	}
}

// InferArgs names the model a user wants to run.
type InferArgs struct {
	Model string
	// DeadlineMs, when > 0, sets the request's deadline that many virtual
	// milliseconds after arrival, overriding the server-derived α·t_ext
	// deadline. A request past its deadline is shed at the next block
	// boundary with ErrDeadlineExceeded.
	DeadlineMs float64
}

// InferReply reports the completed request's QoS outcome.
type InferReply struct {
	ReqID         int
	Model         string
	Blocks        int
	E2EMs         float64
	ExtMs         float64
	WaitMs        float64
	ResponseRatio float64
	Preemptions   int
	// Device is the fleet device that served the request (0 on
	// single-device deployments). New fields are wire-safe: gob ignores
	// fields the peer does not know.
	Device int
}

// fill populates the reply from a completed request.
func (reply *InferReply) fill(req *sched.Request) {
	*reply = InferReply{
		ReqID:         req.ID,
		Model:         req.Model,
		Blocks:        len(req.BlockTimes),
		E2EMs:         req.E2EMs(),
		ExtMs:         req.ExtMs,
		WaitMs:        req.E2EMs() - req.ExtMs,
		ResponseRatio: req.ResponseRatio(),
		Preemptions:   req.Preemptions,
		Device:        req.Device,
	}
}

// Infer runs one inference request to completion (or to a typed terminal
// error: deadline, cancellation, drain, stop, device fault).
func (r *Responder) Infer(args InferArgs, reply *InferReply) error {
	id, ch, err := r.srv.enqueue(args.Model, args.DeadlineMs)
	if err != nil {
		return err
	}
	r.track(id, ch)
	out := <-ch
	r.untrack(id)
	if out.err != nil {
		return out.err
	}
	reply.fill(out.req)
	return nil
}

// SubmitReply reports the ID of an asynchronously submitted request.
type SubmitReply struct {
	ReqID int
}

// Submit enqueues a request and returns immediately with its ID; the
// client claims the outcome with Wait and may Cancel it meanwhile. The
// pending outcome is scoped to this connection: if the connection drops
// before Wait, the request is canceled.
func (r *Responder) Submit(args InferArgs, reply *SubmitReply) error {
	id, ch, err := r.srv.enqueue(args.Model, args.DeadlineMs)
	if err != nil {
		return err
	}
	r.track(id, ch)
	reply.ReqID = id
	return nil
}

// WaitArgs names the submitted request to wait for.
type WaitArgs struct {
	ReqID int
}

// Wait blocks until the submitted request completes or is shed, then
// reports the outcome. Waiting on an ID not submitted on this connection
// (or already claimed) is an error.
func (r *Responder) Wait(args WaitArgs, reply *InferReply) error {
	r.mu.Lock()
	ch := r.calls[args.ReqID]
	r.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("serve: no pending request %d on this connection", args.ReqID)
	}
	out := <-ch
	r.untrack(args.ReqID)
	if out.err != nil {
		return out.err
	}
	reply.fill(out.req)
	return nil
}

// CancelArgs names the request to cancel.
type CancelArgs struct {
	ReqID int
}

// CancelReply reports what the cancellation found ("queued", "inflight",
// "unknown").
type CancelReply struct {
	State string
}

// Cancel cancels a pending request: queued work is removed immediately,
// in-flight work stops at its next block boundary. The canceled request's
// Wait (or Infer) receives ErrCanceled.
func (r *Responder) Cancel(args CancelArgs, reply *CancelReply) error {
	reply.State = string(r.srv.Cancel(args.ReqID))
	return nil
}

// StatsReply reports server-level counters.
type StatsReply struct {
	Served  int
	Queued  int
	Models  int
	UptimeS float64
}

// Stats reports server counters.
func (r *Responder) Stats(_ struct{}, reply *StatsReply) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	*reply = StatsReply{
		Served: r.srv.served,
		Queued: r.srv.eng.Depth(),
		Models: len(r.srv.cfg.Catalog),
	}
	if !r.srv.start.IsZero() {
		reply.UptimeS = time.Since(r.srv.start).Seconds()
	}
	return nil
}

// ModelQoS is one model's serving-time QoS digest.
type ModelQoS struct {
	Model         string
	Served        int
	MeanRR        float64
	MaxRR         float64
	MeanWaitMs    float64
	ViolationRate float64 // fraction with RR > α
	Preemptions   int
}

// ModelStatsReply reports per-model QoS since server start.
type ModelStatsReply struct {
	Alpha  float64
	Models []ModelQoS
}

// ModelStats reports the per-model QoS digest (§5.2's metrics, live).
func (r *Responder) ModelStats(_ struct{}, reply *ModelStatsReply) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	reply.Alpha = r.srv.cfg.Alpha
	names := make([]string, 0, len(r.srv.perModel))
	for name := range r.srv.perModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := r.srv.perModel[name]
		q := ModelQoS{
			Model:       name,
			Served:      a.served,
			MaxRR:       a.maxRR,
			Preemptions: a.preempts,
		}
		if a.served > 0 {
			q.MeanRR = a.sumRR / float64(a.served)
			q.MeanWaitMs = a.sumWaitMs / float64(a.served)
			q.ViolationRate = float64(a.violations) / float64(a.served)
		}
		reply.Models = append(reply.Models, q)
	}
	return nil
}

// Client is a thin wrapper over the rpc client. Dial negotiates the
// protocol version with a Hello handshake, and the client uses the *V2
// methods so typed errors (errors.Is) survive the wire.
type Client struct {
	rpc        *rpc.Client
	proto      int
	caps       map[string]bool
	devices    int
	placement  string
	partitions int
}

// Dial connects to a SPLIT server and negotiates the protocol version; it
// fails if the handshake does.
func Dial(addr string) (*Client, error) {
	rc, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var hello HelloReply
	if err := rc.Call("SPLIT.Hello", HelloArgs{Version: ProtoV2}, &hello); err != nil {
		rc.Close()
		return nil, fmt.Errorf("serve: handshake with %s: %w", addr, err)
	}
	c := &Client{rpc: rc, proto: hello.Version, caps: make(map[string]bool, len(hello.Capabilities)),
		devices: hello.Devices, placement: hello.Placement, partitions: hello.Partitions}
	for _, cap := range hello.Capabilities {
		c.caps[cap] = true
	}
	return c, nil
}

// Proto reports the negotiated protocol version.
func (c *Client) Proto() int { return c.proto }

// Has reports whether the server advertised a capability.
func (c *Client) Has(capability string) bool { return c.caps[capability] }

// Fleet reports the server's device count and placement policy as
// advertised by the handshake.
func (c *Client) Fleet() (devices int, placement string) {
	return c.devices, c.placement
}

// Partitions reports the server's spatial-sharing lane count per device as
// advertised by the handshake (0 against unpartitioned servers).
func (c *Client) Partitions() int { return c.partitions }

// Infer runs one request synchronously.
func (c *Client) Infer(modelName string) (InferReply, error) {
	return c.InferDeadline(modelName, 0)
}

// InferDeadline runs one request synchronously with a client-supplied
// deadline (virtual milliseconds after arrival; 0 = server default).
func (c *Client) InferDeadline(modelName string, deadlineMs float64) (InferReply, error) {
	var reply InferV2Reply
	if err := c.rpc.Call("SPLIT.InferV2", InferArgs{Model: modelName, DeadlineMs: deadlineMs}, &reply); err != nil {
		return reply.Reply, err
	}
	return reply.Reply, ErrorFromCode(reply.Err.Code, reply.Err.Msg)
}

// InferAsync starts a request and returns the pending call.
func (c *Client) InferAsync(modelName string) *rpc.Call {
	reply := new(InferReply)
	return c.rpc.Go("SPLIT.Infer", InferArgs{Model: modelName}, reply, nil)
}

// Submit enqueues a request and returns its ID without waiting.
func (c *Client) Submit(modelName string, deadlineMs float64) (int, error) {
	var reply SubmitV2Reply
	if err := c.rpc.Call("SPLIT.SubmitV2", InferArgs{Model: modelName, DeadlineMs: deadlineMs}, &reply); err != nil {
		return reply.Reply.ReqID, err
	}
	return reply.Reply.ReqID, ErrorFromCode(reply.Err.Code, reply.Err.Msg)
}

// Wait claims the outcome of a submitted request.
func (c *Client) Wait(reqID int) (InferReply, error) {
	var reply InferV2Reply
	if err := c.rpc.Call("SPLIT.WaitV2", WaitArgs{ReqID: reqID}, &reply); err != nil {
		return reply.Reply, err
	}
	return reply.Reply, ErrorFromCode(reply.Err.Code, reply.Err.Msg)
}

// Cancel cancels a pending request and reports what it found.
func (c *Client) Cancel(reqID int) (CancelState, error) {
	var reply CancelReply
	err := c.rpc.Call("SPLIT.Cancel", CancelArgs{ReqID: reqID}, &reply)
	return CancelState(reply.State), err
}

// Stats fetches server counters.
func (c *Client) Stats() (StatsReply, error) {
	var reply StatsReply
	err := c.rpc.Call("SPLIT.Stats", struct{}{}, &reply)
	return reply, err
}

// ModelStats fetches the per-model QoS digest.
func (c *Client) ModelStats() (ModelStatsReply, error) {
	var reply ModelStatsReply
	err := c.rpc.Call("SPLIT.ModelStats", struct{}{}, &reply)
	return reply, err
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rpc.Close() }
