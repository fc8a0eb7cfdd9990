package policy

import (
	"fmt"

	"split/internal/gpusim"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// Split is the paper's system: evenly-sized offline split plans, block-level
// full preemption via the greedy response-ratio queue (Algorithm 1), and the
// elastic splitting mechanism. It drives the scheduling Engine from the
// gpusim discrete-event clock.
type Split struct {
	Config
	// PartialPreemption, when true, degrades full preemption to the
	// straggler-prone partial scheme of Figure 3(a): a preempted request's
	// remaining blocks re-enter the queue at the *back* instead of at their
	// greedy position, so later blocks straggle behind newly arrived work.
	// It exists only for the Figure 3 ablation.
	PartialPreemption bool
}

// NewSplit returns the default SPLIT configuration (α=4 for decision
// making, elastic enabled).
func NewSplit() *Split {
	return &Split{Config: Config{Alpha: 4, Elastic: sched.DefaultElastic()}}
}

// Name implements System.
func (s *Split) Name() string {
	if s.PartialPreemption {
		return "SPLIT-partial"
	}
	return "SPLIT"
}

// Run implements System. With Devices > 1 it runs the full fleet pipeline —
// placement, N independent device timelines under one virtual clock,
// per-device preemption/deadline/cancellation/fault handling — and with
// Devices <= 1 it reduces exactly to the paper's single shared GPU: same
// events, same records.
func (s *Split) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	recs, _ := s.RunWithStats(arrivals, catalog, tr)
	return recs
}

// RunWithStats is Run plus the control plane's end-of-run summary:
// device-hours, scale events, and admission decisions. With autoscaling
// and admission disabled the records are identical to Run's and the stats
// report the fixed fleet's cost.
func (s *Split) RunWithStats(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) ([]Record, FleetStats) {
	validateArrivals(arrivals, catalog)
	rn := &splitRun{
		sim:      gpusim.New(),
		arrivals: arrivals,
		// One record per arrival; preallocating keeps million-request
		// sweeps out of the append-regrowth copy path.
		records: make([]Record, 0, len(arrivals)),
	}
	var sink trace.Sink
	if tr != nil {
		sink = tr
	}
	eng, err := NewEngine(s.Config, catalog, s.PartialPreemption, rn, sink)
	if err != nil {
		panic(fmt.Sprintf("policy: %v", err))
	}
	rn.eng = eng
	// One boundary callback per lane, bound once, keeps the grant loop free
	// of per-hold closures.
	rn.timers = make([]func(now float64), eng.Lanes())
	for i := range rn.timers {
		lane := i
		rn.timers[i] = func(now float64) { rn.settle(lane, now) }
	}
	rn.sim.Stream(rn)
	rn.sim.Run()
	return sortRecords(rn.records), eng.Stats(rn.sim.Now())
}

// splitRun drives one Run: it feeds arrivals and cancellations to the
// engine at their virtual times, turns each grant into a gpusim boundary
// timer, and records the engine's outcomes. It is the simulator's
// arrival stream (gpusim.Feed).
type splitRun struct {
	eng      *Engine
	sim      *gpusim.Sim
	arrivals []workload.Arrival
	timers   []func(now float64)
	records  []Record
}

// Len implements gpusim.Feed.
func (rn *splitRun) Len() int { return len(rn.arrivals) }

// AtMs implements gpusim.Feed.
func (rn *splitRun) AtMs(i int) float64 { return rn.arrivals[i].AtMs }

// Reserved implements gpusim.Feed: an arrival with a client cancel
// reserves the sequence number its cancel event takes.
func (rn *splitRun) Reserved(i int) int {
	if rn.arrivals[i].CancelAtMs > 0 {
		return 1
	}
	return 0
}

// Arrive implements gpusim.Feed: it passes arrival i through the
// engine's front door and starts its lane if the lane is idle. A client
// cancel goes on the event heap only now, under its reserved sequence
// number; one timed before the arrival could only have found an unknown
// ID, so it is dropped.
//
//lint:hotpath the feed loop: every arrival enters the simulator here
func (rn *splitRun) Arrive(i int, now float64, seq int) {
	a := &rn.arrivals[i]
	if a.CancelAtMs > 0 && a.CancelAtMs >= a.AtMs {
		id := a.ID
		//lint:ignore hotalloc one callback per client cancel, only for arrivals that carry one
		rn.sim.AtSeq(a.CancelAtMs, seq+1, func(now float64) { rn.eng.Cancel(id, now, "") })
	}
	//lint:ignore hotalloc only an autoscaler actuation appends, refilling activeIDs within the capacity NewEngine gave it
	if ok, _ := rn.eng.Admit(a.ID, a.Model, now); !ok {
		// Rejected at the door: never enqueued, never started. The record
		// keeps per-arrival accounting complete; QoS rates are computed
		// over admitted records (metrics.Admitted).
		info := rn.eng.catalog[a.Model]
		rn.records = append(rn.records, Record{
			ID: a.ID, Model: a.Model, Class: info.Class, ArriveMs: now,
			StartMs: -1, DoneMs: now, ExtMs: info.ExtMs, Outcome: OutcomeAdmission,
		})
		return
	}
	r := rn.eng.Arrive(a.ID, a.Model, a.DeadlineMs, now)
	if lane := rn.eng.laneOf(r); rn.eng.idle(lane) {
		rn.start(lane, now)
	}
}

// start grants a lane and schedules the hold's boundary.
//
//lint:hotpath the grant decision runs at every block boundary
func (rn *splitRun) start(lane int, now float64) {
	if g := rn.eng.Grant(lane, now); g != nil {
		rn.sim.After(g.HoldMs(), rn.timers[lane])
	}
}

// settle is the boundary callback of every hold: a retried attempt runs
// again, a settled lane restarts along with any sibling lane whose anchor
// slot the finished hold uncovered. Siblings start first — they were
// waiting — which is what makes the adaptive width shrink under
// contention: the settled lane's next grant clamps at the slots the
// siblings just took.
//
//lint:hotpath block-boundary settlement for every device hold
func (rn *splitRun) settle(lane int, now float64) {
	e := rn.eng
	ln := e.lanes[lane]
	if e.Settle(&ln.g, now, "") {
		rn.sim.After(ln.g.HoldMs(), rn.timers[lane])
		return
	}
	if e.parts > 1 {
		base := ln.d.ID * e.parts
		for i := base; i < base+e.parts; i++ {
			if sib := e.lanes[i]; sib != ln && sib.inflight == nil && sib.queue.Len() > 0 && e.idle(i) {
				rn.start(i, now)
			}
		}
	}
	rn.start(lane, now)
}

// Served implements Observer.
func (rn *splitRun) Served(r *sched.Request, now float64) {
	rn.records = append(rn.records, NewRecord(r, now, OutcomeServed))
}

// Shed implements Observer.
func (rn *splitRun) Shed(r *sched.Request, now float64, reason string) {
	rn.records = append(rn.records, NewRecord(r, now, reason))
}

// Preempted implements Observer; the trace already carries preemptions.
func (rn *splitRun) Preempted(*sched.Request, float64) {}

// Scaled implements Observer; FleetStats carries the scale events.
func (rn *splitRun) Scaled(float64, bool, int) {}

// Elastic implements Observer; the simulator keeps no elastic state.
func (rn *splitRun) Elastic(float64, bool) {}
