package policy

import (
	"fmt"
	"math"

	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
)

// Config is SPLIT's scheduling knob set, declared once and shared by the
// two users of the scheduling engine: policy.Split embeds it for the
// discrete-event simulator and serve.Options embeds it for the live
// server, so a configuration tuned in simulation carries over verbatim.
type Config struct {
	// Alpha is the latency-target multiplier used in scheduling decisions.
	Alpha float64
	// Elastic configures §3.3 elastic splitting.
	Elastic sched.Elastic
	// StarveGuardRR, when > 0, enables the starvation-guard extension: a
	// waiting request whose predicted response ratio already reaches this
	// value cannot be passed by later arrivals. See sched.Queue.
	StarveGuardRR float64
	// AlphaByClass optionally assigns class-specific latency-target
	// multipliers (§2.2: "the latency target for short requests are usually
	// stricter than for long requests"). Classes not present fall back to
	// Alpha. A stricter (smaller) short-class α shrinks short targets,
	// which both tightens their violation accounting and raises their
	// scheduling priority through Algorithm 1's E·T ordering.
	AlphaByClass map[model.RequestClass]float64
	// EnforceDeadlines derives an absolute deadline ArriveMs + α·t_ext for
	// every request (unless the arrival supplies its own) and sheds expired
	// requests at block boundaries. Arrival-supplied deadlines are honored
	// even when this is off.
	EnforceDeadlines bool
	// PredictiveShed additionally sheds requests that can no longer finish
	// by their deadline even if granted the device immediately
	// (EdgeServing-style), rather than waiting for the deadline to pass.
	PredictiveShed bool
	// Faults, when non-nil, injects deterministic block-latency spikes and
	// transient failures with bounded per-block retry; draws are a pure hash
	// of (seed, request, block, attempt), and a fleet splits the schedule
	// per device (FaultInjector.ForDevice).
	Faults *gpusim.FaultInjector
	// Devices is the fleet size: each device is an independent timeline
	// with its own queue, elastic state and fault schedule, fed by the
	// placement policy. 0 or 1 reproduces the paper's single shared GPU.
	Devices int
	// Placement names the fleet placement policy (see internal/place):
	// "round-robin", "least-loaded" or "affinity". Empty selects
	// place.Default. Ignored on a single device beyond validation.
	Placement string
	// BatchMax enables same-type micro-batching when > 1: at a block
	// boundary the granted request may coalesce up to BatchMax same-model,
	// same-boundary queue-front neighbors into one batched device grant
	// (sched.BatchPlanner), executed under the BatchCost model. <= 1 — the
	// default — keeps the scalar path.
	BatchMax int
	// BatchCost prices batched block execution; the zero value means
	// gpusim.DefaultBatchCost(). Ignored unless BatchMax > 1.
	BatchCost gpusim.BatchCost
	// Partitions enables spatial sharing when > 1: every device is split
	// into that many concurrent partition slots (gpusim
	// ConfigurePartitions), each with its own scheduling lane — queue,
	// elastic state, executor — fed by lane-level placement. <= 1 — the
	// default — keeps the temporal-only path.
	Partitions int
	// PartitionCost prices fractional-width block execution; the zero value
	// means gpusim.DefaultPartitionCost(). Ignored unless Partitions > 1.
	PartitionCost gpusim.PartitionCost
	// PartitionWidth names the hold-width policy under spatial sharing:
	// place.WidthFixed ("fixed", every hold takes one slot) or
	// place.WidthAdaptive ("adaptive", holds take the contiguous free span
	// at their anchor — full device width when idle). Empty selects
	// place.DefaultWidth. Ignored unless Partitions > 1.
	PartitionWidth string
	// Fleet configures the elastic autoscaler: when enabled (Max > 0) the
	// pool holds Fleet.Max devices of which [Min, Max] are active, scaled
	// on queue-depth and rolling-QoS signals with drain-then-release
	// semantics; Devices is superseded by the bounds. The zero value keeps
	// the fixed fleet of Devices.
	Fleet fleet.AutoscaleConfig
	// Admission configures the front-door gate; the zero value admits
	// everything. A rejected arrival is dropped with trace.ReasonAdmission
	// and never touches a queue.
	Admission fleet.AdmissionConfig
}

// Observer receives the engine's decisions about requests and the fleet.
// The simulator turns them into Records; the server into metrics, rolling
// QoS and waiter deliveries. Calls happen synchronously inside the engine
// method that made the decision, after the matching trace event.
type Observer interface {
	// Served reports that r finished its plan at now (r.DoneMs is set).
	Served(r *sched.Request, now float64)
	// Shed reports that r left the scheduler unserved; reason is a
	// trace.Reason* drop reason or a caller-supplied stop reason.
	Shed(r *sched.Request, now float64, reason string)
	// Preempted reports that r re-entered its queue behind other work at a
	// block boundary.
	Preempted(r *sched.Request, now float64)
	// Scaled reports an autoscaler actuation: the active device prefix grew
	// (out) or shrank to active devices.
	Scaled(now float64, out bool, active int)
	// Elastic reports the §3.3 decision for a splittable arrival: true
	// while the elastic mechanism suppresses splitting.
	Elastic(now float64, suppressed bool)
}

// Engine is SPLIT's online scheduler (§4.1–4.2) as a state machine: it owns
// every scheduling lane — queue, in-flight request and batch membership —
// the gpusim device slot ledgers, the placer, the autoscaler, the
// admission gate, the violation window and the active device prefix. It
// reads no clock and does no I/O: callers pass the current time in and
// learn each grant's device time from Grant.HoldMs. policy.Split drives it
// from gpusim timers; serve.Server drives it from its lane executors under
// the server mutex. Not safe for concurrent use.
type Engine struct {
	cfg     Config
	catalog Catalog
	obs     Observer
	sink    trace.Sink
	// tracing gates every event emission; the format arguments would box
	// and allocate even for a discarded event if built unconditionally.
	tracing bool
	// partial degrades full preemption to the Figure 3(a) partial scheme.
	partial bool

	placer  place.Placer
	spatial *place.Spatial // lane-level wrapper; nil unpartitioned
	pool    *gpusim.DevicePool
	// lanes is the flat lane array indexed device*parts+partition; with
	// parts == 1 a lane IS a device.
	lanes     []*lane
	parts     int
	partCost  gpusim.PartitionCost
	planner   sched.BatchPlanner
	batchCost gpusim.BatchCost
	batchSeq  int // batch ids start at 1; 0 marks unbatched trace events
	// view is the placement-load buffer fleetView refills per arrival.
	view []place.Load
	// live indexes undecided requests (queued or in flight) by ID.
	live map[int]*sched.Request

	// Elastic-fleet state. active is the size of the active device prefix;
	// devices at or past it are draining (finishing queued work, then
	// detaching) or detached. Without the autoscaler active never moves.
	active    int
	maxActive int
	scaler    *fleet.Autoscaler
	admit     *fleet.Admission
	window    *fleet.Window
	activeIDs []int
}

// lane is one scheduling lane: one (device, partition) pair with its own
// queue and a reusable grant, so the steady-state grant loop never
// allocates.
type lane struct {
	d     *gpusim.Device
	queue *sched.Queue
	// part is the lane's anchor partition slot; want is the hold width it
	// requests at every grant (1 fixed, Partitions adaptive — the device
	// clamps to the contiguous free span). Both 0/1 unpartitioned.
	part int
	want int
	// inflight is the granted request (the leader of a batch); batch is the
	// full membership of a batched grant, nil for scalar grants.
	inflight *sched.Request
	batch    []*sched.Request
	// scratch is the batch-formation buffer FormInto reuses across grants.
	scratch []*sched.Request
	g       Grant
}

// executing reports whether r currently holds (or shares) the lane's grant.
func (ln *lane) executing(r *sched.Request) bool {
	if ln.inflight == r {
		return true
	}
	for _, m := range ln.batch {
		if m == r {
			return true
		}
	}
	return false
}

// Grant is one boundary-delimited device hold: the leader request, the
// optional batch membership, the block being executed and its fault-retry
// state. Each lane owns one and reuses it for every hold.
type Grant struct {
	ln *lane
	// r is the granted request — the batch leader when batch is non-nil.
	r     *sched.Request
	batch []*sched.Request
	// id is the batch id (0 for scalar grants).
	id      int
	block   int
	baseDur float64
	// runDur is the per-attempt device time: baseDur for scalar grants,
	// batchCost.BlockMs(baseDur, n) for batched ones, and either stretched
	// by partCost.BlockMs(·, frac) when the hold was granted a fractional
	// device width.
	runDur float64
	// frac is the device fraction the hold was granted (1 whole-device).
	frac    float64
	attempt int
	fault   gpusim.BlockFault
}

// HoldMs is the device time of the current attempt, latency spike
// included: the caller settles the grant this many virtual ms after it
// was granted (or retried).
func (g *Grant) HoldMs() float64 { return g.runDur * g.fault.SpikeFactor }

// Frac is the device fraction the hold occupies (1 for whole-device holds).
func (g *Grant) Frac() float64 { return g.frac }

// Size is the number of requests sharing the hold (1 for scalar grants).
func (g *Grant) Size() int {
	if g.batch == nil {
		return 1
	}
	return len(g.batch)
}

// Leader is the granted request (the batch leader for batched grants).
func (g *Grant) Leader() *sched.Request { return g.r }

// Block is the index of the block being executed.
func (g *Grant) Block() int { return g.block }

// FleetStats summarizes the control plane's activity over one run.
type FleetStats struct {
	// DeviceHoursMs is the summed attached device-time, the elastic
	// fleet's cost denominator. A fixed fleet reports Devices x horizon.
	DeviceHoursMs float64
	// ScaleOuts / ScaleIns count autoscaler actuations.
	ScaleOuts int
	ScaleIns  int
	// MaxActive is the largest active fleet size reached.
	MaxActive int
	// Admitted / Rejected count front-door admission decisions; both stay
	// 0 when the gate is disabled.
	Admitted int
	Rejected int
}

// NewEngine validates cfg and builds the engine's lanes over catalog.
// partial selects the Figure 3(a) partial-preemption ablation. Events go
// to sink (nil disables them) and decisions to observer.
func NewEngine(cfg Config, catalog Catalog, partial bool, observer Observer, sink trace.Sink) (*Engine, error) {
	n := cfg.Devices
	if n < 1 {
		n = 1
	}
	active := n
	if cfg.Fleet.Enabled() {
		if err := cfg.Fleet.Validate(); err != nil {
			return nil, err
		}
		// The pool holds Max timelines; the autoscaler moves the active
		// prefix between Min and Max.
		n = cfg.Fleet.Max
		active = cfg.Fleet.Min
		if active < 1 {
			active = 1
		}
	}
	parts := cfg.Partitions
	if parts < 1 {
		parts = 1
	}
	// Placement is lane-level under spatial sharing: the inner policy picks
	// among n*parts lanes and the Spatial wrapper maps the pick to a
	// (device, partition, width) decision.
	placer, err := place.New(cfg.Placement, n*parts)
	if err != nil {
		return nil, err
	}
	var spatial *place.Spatial
	if parts > 1 {
		if spatial, err = place.NewSpatial(placer, parts, cfg.PartitionWidth); err != nil {
			return nil, err
		}
		placer = spatial
	}
	scaler, err := fleet.NewAutoscaler(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	admit, err := fleet.NewAdmission(cfg.Admission)
	if err != nil {
		return nil, err
	}
	pool := gpusim.NewElasticPool(nil, n, active, cfg.Faults)
	if parts > 1 {
		pool.ConfigurePartitions(parts)
	}
	e := &Engine{
		cfg:       cfg,
		catalog:   catalog,
		obs:       observer,
		sink:      sink,
		tracing:   sink != nil,
		partial:   partial,
		placer:    placer,
		spatial:   spatial,
		pool:      pool,
		lanes:     make([]*lane, n*parts),
		parts:     parts,
		partCost:  cfg.PartitionCost.OrDefault(),
		planner:   sched.BatchPlanner{Max: cfg.BatchMax},
		batchCost: cfg.BatchCost.OrDefault(),
		view:      make([]place.Load, n*parts),
		live:      make(map[int]*sched.Request, 8),
		active:    active,
		maxActive: active,
		scaler:    scaler,
		admit:     admit,
	}
	if scaler != nil {
		e.window = fleet.NewWindow(0)
		e.activeIDs = make([]int, 0, n)
	}
	want := 1
	if parts > 1 && spatial.Width() != place.WidthFixed {
		want = parts
	}
	for i := range e.lanes {
		q := sched.NewQueue(cfg.Alpha)
		q.StarveGuardRR = cfg.StarveGuardRR
		ln := &lane{d: pool.Device(i / parts), queue: q, part: i % parts, want: want}
		ln.g.ln = ln
		e.lanes[i] = ln
	}
	return e, nil
}

// emit forwards one event to the sink. Callers gate on e.tracing.
func (e *Engine) emit(ev trace.Event) { e.sink.Emit(ev) }

// Admit runs the front door for one arrival of modelName: the admission
// gate, then one throttled autoscaler evaluation — in that order whatever
// the verdict. A rejection returns false with the gate's detail; the
// arrival must then not be passed to Arrive. id labels the Drop event.
func (e *Engine) Admit(id int, modelName string, now float64) (bool, string) {
	ok, detail := true, ""
	if e.admit != nil {
		ok, detail = e.admit.Admit(now, e.catalog[modelName].ExtMs, e.cfg.Alpha, e.admitView())
		if !ok && e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.Drop, ReqID: id, Model: modelName,
				Detail: trace.ReasonAdmission + ": " + detail})
		}
	}
	e.autoscale(now)
	return ok, detail
}

// Arrive wraps an admitted arrival into a scheduler request: placement,
// the §3.3 elastic split decision, deadline derivation and the Algorithm 1
// insertion into the placed lane's queue. deadlineMs > 0 sets a deadline
// that many ms after now. The caller starts the placed lane if it is idle.
//
//lint:hotpath every arrival is placed and inserted here
func (e *Engine) Arrive(id int, modelName string, deadlineMs, now float64) *sched.Request {
	info := e.catalog[modelName]
	//lint:ignore hotalloc one private copy of the split plan per request; the request owns its block list
	plan := e.catalog.BlocksFor(modelName)
	planned := 0.0
	for _, b := range plan {
		planned += b
	}
	view := e.fleetView()
	preq := place.Request{ID: id, Model: modelName, ExtMs: info.ExtMs, PlannedMs: planned}
	var devID, idx int
	if e.spatial != nil {
		dec := e.spatial.Decide(preq, view)
		devID, idx = dec.Device, place.LaneOf(dec.Device, dec.Partition, e.parts)
	} else {
		devID = e.placer.Place(preq, view)
		idx = devID
	}
	if idx < 0 || idx >= len(view) {
		panic(fmt.Sprintf("policy: placer %q chose lane %d of %d", e.placer.Name(), idx, len(view)))
	}
	ln := e.lanes[idx]
	if e.tracing && len(e.lanes) > 1 {
		e.emit(trace.Event{AtMs: now, Kind: trace.Place, ReqID: id, Model: modelName, Device: devID, Part: ln.part,
			Detail: fmt.Sprintf("policy=%s depth=%d", e.placer.Name(), view[idx].Queued)})
	}
	blocks := plan
	if len(plan) > 1 {
		// The §3.3 same-type run the arrival would join includes the
		// request occupying the placed lane, not just its queued neighbors.
		split := e.cfg.Elastic.ShouldSplitWith(ln.queue, modelName, ln.inflight)
		if !split {
			//lint:ignore hotalloc the unsplit plan is the request's own one-block list
			blocks = []float64{info.ExtMs}
		}
		e.obs.Elastic(now, !split)
	}
	//lint:ignore hotalloc the request itself: one object per arrival
	r := sched.NewRequest(id, modelName, info.Class, now, info.ExtMs, blocks)
	r.Device = devID
	r.Partition = ln.part
	if alpha, ok := e.cfg.AlphaByClass[info.Class]; ok {
		r.AlphaOverride = alpha
	}
	if deadlineMs > 0 {
		r.DeadlineMs = now + deadlineMs
	} else if e.cfg.EnforceDeadlines {
		r.SetDeadline(e.cfg.Alpha)
	}
	e.live[id] = r
	if e.tracing && ln.queue.Sink == nil {
		// Record Algorithm 1's scan length alongside the chosen position.
		pos, decisions := ln.queue.InsertGreedyExplain(now, r)
		e.emit(trace.Event{AtMs: now, Kind: trace.Arrive, ReqID: id, Model: modelName, Device: devID, Part: ln.part,
			Detail: fmt.Sprintf("pos=%d blocks=%d scanned=%d qlen=%d", pos, len(blocks), len(decisions), ln.queue.Len()-1)})
		return r
	}
	if e.tracing {
		// The queue reports the insertion position itself (an Enqueue
		// event), so the arrival carries only its plan length.
		e.emit(trace.Event{AtMs: now, Kind: trace.Arrive, ReqID: id, Model: modelName, Device: devID, Part: ln.part,
			Detail: fmt.Sprintf("blocks=%d", len(blocks))})
	}
	ln.queue.InsertGreedy(now, r)
	return r
}

// laneOf returns the flat lane index of a placed request.
func (e *Engine) laneOf(r *sched.Request) int { return r.Device*e.parts + r.Partition }

// idle reports whether a lane can be granted right now: unpartitioned, its
// device is free; partitioned, its anchor slot is not covered by a hold.
func (e *Engine) idle(lane int) bool {
	ln := e.lanes[lane]
	if e.parts > 1 {
		return !ln.d.PartitionBusy(ln.part)
	}
	return !ln.d.Busy()
}

// Grant hands the lane's device to its next runnable request, forming a
// micro-batch when the planner allows one, after shedding expired queued
// work. It returns nil when the lane's anchor slot is covered by a
// sibling's hold or nothing is runnable; the caller settles a non-nil
// grant HoldMs later.
//
//lint:hotpath the grant decision runs at every block boundary
func (e *Engine) Grant(lane int, now float64) *Grant {
	ln := e.lanes[lane]
	// Under spatial sharing a lane can be asked to start while its anchor
	// slot is still covered by a sibling lane's wider hold; it waits for
	// the next release.
	if e.parts > 1 && ln.d.PartitionBusy(ln.part) {
		return nil
	}
	// Shed doomed queued work before granting the token — an expired
	// request must never occupy the device for another block.
	//lint:ignore hotalloc SweepExpired allocates only when something actually expired — the shed path, not the steady grant loop
	for _, ex := range ln.queue.SweepExpired(now, e.cfg.PredictiveShed) {
		e.shed(now, ex, OutcomeDeadline)
	}
	r := ln.queue.PopFront()
	if r == nil {
		ln.inflight = nil
		// A draining device (scaled in while loaded) detaches the moment
		// its backlog empties — drain-then-release's release half. Every
		// lane of the device must be drained and the device idle.
		if e.scaler != nil && ln.d.ID >= e.active && ln.d.Attached() &&
			!ln.d.Busy() && e.deviceDrained(ln.d.ID) {
			ln.d.Detach(now)
		}
		return nil
	}
	if e.planner.Enabled() {
		batch := e.planner.FormInto(ln.scratch[:0], ln.queue, r, now)
		ln.scratch = batch
		if len(batch) > 1 {
			return e.grantBatch(ln, now, batch)
		}
	}
	g := &ln.g
	g.frac = 1
	if e.parts > 1 {
		g.frac = ln.d.AcquirePartition(now, ln.part, ln.want)
	} else {
		ln.d.Acquire(now)
	}
	ln.inflight = r
	if r.StartMs < 0 {
		r.StartMs = now
	}
	g.r = r
	g.batch = nil
	g.id = 0
	g.block = r.Next
	g.baseDur = r.BlockTimes[g.block]
	g.runDur = g.baseDur
	g.attempt = 0
	r.Next++
	if e.parts > 1 {
		g.runDur = e.partCost.BlockMs(g.baseDur, g.frac)
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: r.ID, Model: r.Model, Block: g.block,
				Device: r.Device, Part: ln.part, Detail: fmt.Sprintf("dur=%.3f frac=%.2f", g.runDur, g.frac)})
		}
	} else if e.tracing {
		e.emit(trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: r.ID, Model: r.Model, Block: g.block,
			Device: r.Device, Detail: fmt.Sprintf("dur=%.3f", g.baseDur)})
	}
	e.begin(g, now)
	return g
}

// grantBatch grants one batched hold: every member advances the same block
// index in one boundary-delimited hold that costs batchCost.BlockMs(base,
// n) instead of n serial blocks. Faults draw on the leader's identity so a
// batch of one replays the scalar schedule.
//
//lint:hotpath batched grants run at block boundaries when batching is on
func (e *Engine) grantBatch(ln *lane, now float64, batch []*sched.Request) *Grant {
	n := len(batch)
	e.batchSeq++
	lead := batch[0]
	g := &ln.g
	g.r = lead
	g.batch = batch
	g.id = e.batchSeq
	g.block = lead.Next
	g.baseDur = lead.BlockTimes[g.block]
	g.runDur = e.batchCost.BlockMs(g.baseDur, n)
	g.frac = 1
	g.attempt = 0
	if e.parts > 1 {
		g.frac = ln.d.AcquirePartitionBatch(now, ln.part, ln.want, n)
		g.runDur = e.partCost.BlockMs(g.runDur, g.frac)
	} else {
		ln.d.AcquireBatch(now, n)
	}
	ln.inflight = lead
	ln.batch = batch
	for _, m := range batch {
		if m.StartMs < 0 {
			m.StartMs = now
		}
		m.Next++
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: m.ID, Model: m.Model, Block: g.block,
				Device: m.Device, Part: ln.part, Batch: g.id, Detail: fmt.Sprintf("dur=%.3f n=%d", g.runDur, n)})
		}
	}
	e.begin(g, now)
	return g
}

// begin starts one execution attempt of the granted block by drawing its
// fault; HoldMs then reports the (possibly spiked) attempt duration.
//
//lint:hotpath every device hold draws its attempt fault here
func (e *Engine) begin(g *Grant, now float64) {
	g.fault = g.ln.d.Faults.Draw(g.r.ID, g.block, g.attempt)
	if g.fault.SpikeFactor > 1 && e.tracing {
		e.emit(trace.Event{AtMs: now, Kind: trace.Fault, ReqID: g.r.ID, Model: g.r.Model, Block: g.block,
			Device: g.r.Device, Detail: fmt.Sprintf("spike x%.2f attempt=%d", g.fault.SpikeFactor, g.attempt)})
	}
}

// Settle decides a hold's fate at its boundary. A transient fault within
// the retry budget is retried — Settle returns true and the caller waits
// HoldMs again. Otherwise the hold is released and every member is
// delivered, shed or re-inserted (full preemption), and Settle returns
// false; the caller then grants the lane (and, partitioned, any sibling
// lane the release uncovered) again.
//
// A terminal fault sheds every member as a device fault, whatever else
// happened to them meanwhile. stop, when non-empty, is the caller's
// shutdown reason: a member that neither finished nor was canceled is shed
// with it instead of being re-inserted.
//
//lint:hotpath block-boundary settlement for every device hold
func (e *Engine) Settle(g *Grant, now float64, stop string) (retry bool) {
	r := g.r
	if g.fault.Fail {
		if g.ln.d.Faults.Exhausted(g.attempt) {
			if e.tracing {
				e.emit(trace.Event{AtMs: now, Kind: trace.Fault, ReqID: r.ID, Model: r.Model, Block: g.block,
					Device: r.Device, Detail: fmt.Sprintf("terminal after %d attempts", g.attempt+1)})
			}
			e.release(g, now)
			if g.batch == nil {
				e.shed(now, r, OutcomeDeviceFault)
			}
			for _, m := range g.batch {
				e.shed(now, m, OutcomeDeviceFault)
			}
			return false
		}
		// An attempt boundary is a block boundary for lifecycle purposes:
		// re-check a scalar request's fate before spending more device time
		// on it. Batched holds don't abandon mid-retry — one member's
		// cancellation or expiry must not discard its batch-mates' attempt.
		if g.batch == nil && (r.Canceled || stop != "" || r.Expired(now)) {
			reason := OutcomeDeadline
			if r.Canceled {
				reason = OutcomeCanceled
			} else if stop != "" {
				reason = stop
			}
			e.release(g, now)
			e.shed(now, r, reason)
			return false
		}
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.Fault, ReqID: r.ID, Model: r.Model, Block: g.block,
				Device: r.Device, Detail: fmt.Sprintf("transient attempt=%d, retrying", g.attempt)})
		}
		g.attempt++
		e.begin(g, now)
		return true
	}
	e.release(g, now)
	if g.batch == nil {
		e.settleMember(g, r, now, stop)
	}
	// Settle in grant (FIFO) order so completions and re-inserts keep the
	// arrival order the batch was formed under.
	for _, m := range g.batch {
		e.settleMember(g, m, now, stop)
	}
	return false
}

// release closes a hold at its boundary, whatever its members' fate.
//
//lint:hotpath closes the device hold at every boundary
func (e *Engine) release(g *Grant, now float64) {
	ln := g.ln
	if e.tracing {
		if g.batch == nil {
			e.emit(trace.Event{AtMs: now, Kind: trace.EndBlock, ReqID: g.r.ID, Model: g.r.Model, Block: g.block,
				Device: g.r.Device, Part: ln.part})
		}
		for _, m := range g.batch {
			e.emit(trace.Event{AtMs: now, Kind: trace.EndBlock, ReqID: m.ID, Model: m.Model, Block: g.block,
				Device: m.Device, Part: ln.part, Batch: g.id})
		}
	}
	if e.parts > 1 {
		ln.d.ReleasePartition(now, ln.part)
	} else {
		ln.d.Release(now)
	}
	ln.inflight = nil
	ln.batch = nil
}

// settleMember decides one member's fate after its block: deliver it if
// its plan is done (even if canceled meanwhile — the work is paid for),
// shed it if canceled, stopping or expired, else re-insert the remainder.
//
//lint:hotpath every granted member settles here at its boundary
func (e *Engine) settleMember(g *Grant, r *sched.Request, now float64, stop string) {
	switch {
	case r.Finished():
		r.DoneMs = now
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.Complete, ReqID: r.ID, Model: r.Model, Block: g.block,
				Device: r.Device, Detail: fmt.Sprintf("rr=%.2f", r.ResponseRatio())})
		}
		e.finish(r, r.ResponseRatio() > e.alphaOf(r))
		e.obs.Served(r, now)
	case r.Canceled:
		e.shed(now, r, OutcomeCanceled)
	case stop != "":
		e.shed(now, r, stop)
	case r.Expired(now):
		e.shed(now, r, OutcomeDeadline)
	default:
		var pos int
		if e.partial {
			g.ln.queue.PushBack(r)
			pos = g.ln.queue.Len() - 1
		} else {
			pos = g.ln.queue.InsertGreedy(now, r)
		}
		if pos > 0 {
			r.Preemptions++
			if e.tracing {
				e.emit(trace.Event{AtMs: now, Kind: trace.Preempt, ReqID: r.ID, Model: r.Model, Block: r.Next,
					Device: r.Device, Detail: fmt.Sprintf("requeued at %d", pos)})
			}
			e.obs.Preempted(r, now)
		}
	}
}

// shed drops an undecided request for reason.
//
//lint:hotpath deadline sweeps shed on the grant path at every boundary
func (e *Engine) shed(now float64, r *sched.Request, reason string) {
	if e.tracing {
		e.emit(trace.Event{AtMs: now, Kind: trace.Shed, ReqID: r.ID, Model: r.Model, Block: r.Next,
			Device: r.Device, Detail: reason})
	}
	e.finish(r, true)
	e.obs.Shed(r, now, reason)
}

// finish forgets a decided request and feeds the autoscaler's rolling
// violation window with the same per-record predicate as
// metrics.ViolationRate: a shed request violated its target by definition.
func (e *Engine) finish(r *sched.Request, violated bool) {
	delete(e.live, r.ID)
	if e.window != nil {
		e.window.Observe(violated)
	}
}

// alphaOf is the latency-target multiplier r is judged against.
func (e *Engine) alphaOf(r *sched.Request) float64 {
	if r.AlphaOverride > 0 {
		return r.AlphaOverride
	}
	return e.cfg.Alpha
}

// Cancel outcomes reported by Engine.Cancel.
const (
	// CanceledQueued: the request was waiting and has been removed and shed.
	CanceledQueued = "queued"
	// CanceledInflight: the request holds a device grant and will be shed
	// at its next block boundary.
	CanceledInflight = "inflight"
)

// Cancel cancels an undecided request: a queued one is removed and shed at
// once, an in-flight one (scalar or batch member) is marked to be shed at
// its next boundary. It returns CanceledQueued, CanceledInflight, or ""
// for an unknown or already decided ID; marked is true when this call
// changed the request. why, when non-empty, is appended to the Cancel
// event's detail.
func (e *Engine) Cancel(id int, now float64, why string) (state string, marked bool) {
	r := e.live[id]
	if r == nil {
		return "", false
	}
	ln := e.lanes[e.laneOf(r)]
	if ln.queue.Remove(id) != nil {
		r.Canceled = true
		e.emitCancel(now, r, CanceledQueued, why)
		e.shed(now, r, OutcomeCanceled)
		return CanceledQueued, true
	}
	if !ln.executing(r) {
		return "", false
	}
	if r.Canceled {
		return CanceledInflight, false
	}
	r.Canceled = true
	e.emitCancel(now, r, CanceledInflight, why)
	return CanceledInflight, true
}

func (e *Engine) emitCancel(now float64, r *sched.Request, state, why string) {
	if !e.tracing {
		return
	}
	if why != "" {
		state += ": " + why
	}
	e.emit(trace.Event{AtMs: now, Kind: trace.Cancel, ReqID: r.ID, Model: r.Model, Block: r.Next,
		Device: r.Device, Part: r.Partition, Detail: state})
}

// ShedQueued sheds every queued request on every lane with reason and
// returns how many it shed; in-flight holds are left to settle.
func (e *Engine) ShedQueued(now float64, reason string) int {
	n := 0
	for _, ln := range e.lanes {
		for r := ln.queue.PopFront(); r != nil; r = ln.queue.PopFront() {
			e.shed(now, r, reason)
			n++
		}
	}
	return n
}

// fleetView snapshots the active lanes' placement-relevant load into the
// reusable view buffer: queued work plus the executing request's
// uncommitted blocks. Draining and detached devices are excluded —
// placement must never target them. Under spatial sharing Busy is the
// lane's anchor-slot occupancy.
func (e *Engine) fleetView() []place.Load {
	lanes := e.active * e.parts
	for i := 0; i < lanes; i++ {
		ln := e.lanes[i]
		busy := ln.d.Busy()
		if e.parts > 1 {
			busy = ln.d.PartitionBusy(ln.part)
		}
		e.view[i] = place.Load{
			Device:   i,
			Queued:   ln.queue.Len(),
			QueuedMs: ln.queue.TotalRemainingMs(),
			Busy:     busy,
		}
		if ln.inflight != nil {
			e.view[i].InflightMs = ln.inflight.RemainingMs()
		}
	}
	return e.view[:lanes]
}

// admitView assembles the admission gate's fleet view from the active
// prefix.
func (e *Engine) admitView() fleet.View {
	v := fleet.View{ActiveDevices: e.active, ShortestBacklogMs: math.MaxFloat64}
	for _, ln := range e.lanes[:e.active*e.parts] {
		v.QueueDepth += ln.queue.Len()
		backlog := ln.queue.TotalRemainingMs()
		if ln.inflight != nil {
			backlog += ln.inflight.RemainingMs()
		}
		if backlog < v.ShortestBacklogMs {
			v.ShortestBacklogMs = backlog
		}
	}
	return v
}

// autoscale runs one throttled controller evaluation and actuates its
// decision. It is piggybacked on arrivals — a simulator must not plant
// self-perpetuating timers, or its event heap never drains — which is
// sufficient: an idle stretch with no arrivals has nothing to scale out
// for, and the evaluation at the next arrival observes the idle period via
// the controller's persistence clocks.
func (e *Engine) autoscale(now float64) {
	if e.scaler == nil || !e.scaler.Due(now) {
		return
	}
	depth, inflight := 0, 0
	for _, ln := range e.lanes[:e.active*e.parts] {
		depth += ln.queue.Len()
		if ln.inflight != nil {
			inflight++
		}
	}
	switch e.scaler.Evaluate(fleet.Signals{
		NowMs: now, Active: e.active, QueueDepth: depth,
		Inflight: inflight, ViolRate: e.window.Rate(),
	}) {
	case fleet.ScaleOut:
		d := e.pool.Device(e.active)
		if !d.Attached() {
			// Re-including a device that never finished draining skips
			// the attach: its timeline never left the fleet.
			d.Attach(now)
		}
		e.SetActive(e.active + 1)
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.ScaleOut, ReqID: -1,
				Device: d.ID, Detail: fmt.Sprintf("active=%d depth=%d", e.active, depth)})
		}
		e.obs.Scaled(now, true, e.active)
	case fleet.ScaleIn:
		e.SetActive(e.active - 1)
		d := e.pool.Device(e.active)
		if e.tracing {
			e.emit(trace.Event{AtMs: now, Kind: trace.ScaleIn, ReqID: -1,
				Device: d.ID, Detail: fmt.Sprintf("active=%d drain=%d", e.active, e.DeviceDepth(d.ID))})
		}
		e.obs.Scaled(now, false, e.active)
		// Drain-then-release: an idle empty device detaches now; a busy one
		// keeps running and detaches when Grant finds every lane drained.
		if d.Attached() && !d.Busy() && e.deviceDrained(d.ID) {
			d.Detach(now)
		}
	}
}

// SetActive moves the actively placed device prefix to [0, n) and tells
// the placement policy, so stateful placers (affinity homes) cannot
// reference a draining device. The autoscaler actuates through it.
func (e *Engine) SetActive(n int) {
	e.active = n
	if n > e.maxActive {
		e.maxActive = n
	}
	e.activeIDs = e.activeIDs[:0]
	for i := 0; i < n; i++ {
		e.activeIDs = append(e.activeIDs, i)
	}
	e.placer.Resize(e.activeIDs)
}

// deviceDrained reports whether every lane of the device has an empty
// queue and no in-flight request — the release condition for
// drain-then-release.
func (e *Engine) deviceDrained(dev int) bool {
	for _, ln := range e.lanes[dev*e.parts : (dev+1)*e.parts] {
		if ln.inflight != nil || ln.queue.Len() > 0 {
			return false
		}
	}
	return true
}

// Stats reports the control plane's activity up to now.
func (e *Engine) Stats(now float64) FleetStats {
	st := FleetStats{DeviceHoursMs: e.pool.DeviceHoursMs(now), MaxActive: e.maxActive}
	if e.admit != nil {
		a := e.admit.Stats()
		st.Admitted, st.Rejected = a.Admitted, a.Rejected
	}
	if e.scaler != nil {
		st.ScaleOuts, st.ScaleIns = e.scaler.Events()
	}
	return st
}

// Devices is the number of physical devices (Fleet.Max when autoscaling).
func (e *Engine) Devices() int { return e.pool.Len() }

// Parts is the number of partition lanes per device (1 unpartitioned).
func (e *Engine) Parts() int { return e.parts }

// Lanes is the number of scheduling lanes, Devices x Parts.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Active is the size of the actively placed device prefix.
func (e *Engine) Active() int { return e.active }

// Placer is the placement policy (a *place.Spatial when partitioned).
func (e *Engine) Placer() place.Placer { return e.placer }

// Queue is a lane's scheduler queue, for inspection and for attaching an
// Enqueue event sink.
func (e *Engine) Queue(lane int) *sched.Queue { return e.lanes[lane].queue }

// Inflight is the lane's granted request (a batch's leader), nil if idle.
func (e *Engine) Inflight(lane int) *sched.Request { return e.lanes[lane].inflight }

// Depth is the number of waiting requests across every lane.
func (e *Engine) Depth() int {
	n := 0
	for _, ln := range e.lanes {
		n += ln.queue.Len()
	}
	return n
}

// DeviceDepth is the number of waiting requests across a device's lanes.
func (e *Engine) DeviceDepth(dev int) int {
	n := 0
	for _, ln := range e.lanes[dev*e.parts : (dev+1)*e.parts] {
		n += ln.queue.Len()
	}
	return n
}
