package serve

import (
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// FleetOptions is the nested autoscaler option block WithFleet installs —
// the same watermark/hysteresis configuration the simulator takes as
// policy.Split.Fleet, so a tuned controller carries between layers
// unchanged.
type FleetOptions = fleet.AutoscaleConfig

// AdmissionOptions is the nested front-door gate option block
// WithAdmission installs; the simulator's counterpart is
// policy.Split.Admission.
type AdmissionOptions = fleet.AdmissionConfig

// Options is the server configuration New assembles from functional
// options: the scheduling knobs the simulator shares (policy.Config,
// declared once for both) plus the serving-only ones.
type Options struct {
	policy.Config
	// Catalog holds the deployed models and split plans.
	Catalog policy.Catalog
	// TimeScale converts simulated block milliseconds to wall-clock
	// milliseconds (1.0 = real time; 0.01 = 100× accelerated).
	TimeScale float64
	// MaxQueue caps the number of waiting requests; arrivals beyond it are
	// rejected with ErrQueueFull. 0 means unbounded (the paper's setting).
	// For the gate the simulator shares, use Admission instead.
	MaxQueue int
	// QoSWindow sizes the rolling online QoS window (completions);
	// <= 0 selects obs.DefaultQoSWindow.
	QoSWindow int
	// Obs, when non-nil, receives live metrics (request/completion/drop
	// counters, queue-depth and elastic gauges, wait/e2e/RR histograms)
	// under the split_* names documented in the README.
	Obs *obs.Registry
	// Sink, when non-nil, receives the live scheduling event stream
	// (arrive, enqueue, block start/end, preempt, elastic transitions,
	// complete, drop, shed, cancel, fault, drain) — typically a trace.Ring
	// flight recorder, a Tracer, or a Fanout of both.
	Sink trace.Sink
	// ArrivalRecorder, when non-nil, records every admitted arrival (and
	// any later cancellation) in workload trace form, so the live run can
	// be written with workload.WriteTrace and re-simulated deterministically
	// through policy.Split.
	ArrivalRecorder *workload.Recorder
}

// Option mutates one server option; pass a sequence to New.
type Option func(*Options)

// New builds a server for catalog with the given options. Zero options
// yield the paper's defaults: α=4, real-time scale, one device, unbounded
// queue, no deadlines, no fault injection.
func New(catalog policy.Catalog, opts ...Option) (*Server, error) {
	o := Options{Catalog: catalog}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return newServer(o)
}

// WithAlpha sets the latency-target multiplier used in scheduling
// decisions (values <= 0 fall back to the default 4).
func WithAlpha(alpha float64) Option {
	return func(o *Options) { o.Alpha = alpha }
}

// WithElastic configures §3.3 elastic splitting.
func WithElastic(e sched.Elastic) Option {
	return func(o *Options) { o.Elastic = e }
}

// WithTimeScale converts simulated block milliseconds to wall-clock
// milliseconds (1.0 = real time; 0.01 = 100x accelerated).
func WithTimeScale(scale float64) Option {
	return func(o *Options) { o.TimeScale = scale }
}

// WithMaxQueue caps the number of waiting requests across the fleet;
// arrivals beyond it are rejected with ErrQueueFull. 0 means unbounded.
func WithMaxQueue(n int) Option {
	return func(o *Options) { o.MaxQueue = n }
}

// WithQoSWindow sizes the rolling online QoS window (completions);
// <= 0 selects obs.DefaultQoSWindow.
func WithQoSWindow(n int) Option {
	return func(o *Options) { o.QoSWindow = n }
}

// WithDeadlines enables deadline enforcement: every request gets an
// absolute deadline ArriveMs + α·t_ext (unless the RPC supplies its own)
// and expired requests are shed at block boundaries. alpha > 0 also sets
// the scheduling α; pass 0 to keep the configured one.
func WithDeadlines(alpha float64) Option {
	return func(o *Options) {
		o.EnforceDeadlines = true
		if alpha > 0 {
			o.Alpha = alpha
		}
	}
}

// WithPredictiveShed additionally sheds requests that can no longer finish
// by their deadline even if granted the device immediately.
func WithPredictiveShed(on bool) Option {
	return func(o *Options) { o.PredictiveShed = on }
}

// WithFaults injects deterministic block-latency spikes and transient
// block failures with bounded per-block retry; on a fleet each device gets
// a decorrelated schedule (FaultInjector.ForDevice).
func WithFaults(f *gpusim.FaultInjector) Option {
	return func(o *Options) { o.Faults = f }
}

// WithObs attaches a live metrics registry (split_* families, plus
// split_device_* on fleets).
func WithObs(reg *obs.Registry) Option {
	return func(o *Options) { o.Obs = reg }
}

// WithSink attaches a live scheduling-event sink (typically a trace.Ring
// flight recorder, a Tracer, or a Fanout of both).
func WithSink(sink trace.Sink) Option {
	return func(o *Options) { o.Sink = sink }
}

// WithDevices sets the fleet size: one executor goroutine and scheduler
// queue per device. Values < 1 mean a single device.
func WithDevices(n int) Option {
	return func(o *Options) { o.Devices = n }
}

// WithPlacement selects the fleet placement policy (see internal/place):
// "round-robin", "least-loaded" or "affinity". Empty selects the default.
func WithPlacement(name string) Option {
	return func(o *Options) { o.Placement = name }
}

// WithBatching enables same-type micro-batching: at a block boundary the
// granted request may coalesce up to max same-model, same-boundary
// queue-front neighbors into one batched device grant. max <= 1 keeps the
// scalar path (the default) and reproduces unbatched behavior exactly.
func WithBatching(max int) Option {
	return func(o *Options) { o.BatchMax = max }
}

// WithBatchCost sets the batched-block cost model (setup fraction and
// efficiency gain); the zero value means gpusim.DefaultBatchCost(). It has
// no effect unless WithBatching enables batching.
func WithBatchCost(c gpusim.BatchCost) Option {
	return func(o *Options) { o.BatchCost = c }
}

// WithPartitions enables spatial sharing: every device is split into m
// concurrent partition slots, each a scheduling lane with its own queue
// and executor goroutine. m <= 1 keeps the temporal-only path (the
// default) and reproduces unpartitioned behavior exactly.
func WithPartitions(m int) Option {
	return func(o *Options) { o.Partitions = m }
}

// WithPartitionCost sets the fractional-width efficiency curve (the zero
// value means gpusim.DefaultPartitionCost()). It has no effect unless
// WithPartitions enables spatial sharing.
func WithPartitionCost(c gpusim.PartitionCost) Option {
	return func(o *Options) { o.PartitionCost = c }
}

// WithPartitionWidth selects the hold-width policy under spatial sharing:
// place.WidthFixed or place.WidthAdaptive; empty selects
// place.DefaultWidth.
func WithPartitionWidth(width string) Option {
	return func(o *Options) { o.PartitionWidth = width }
}

// WithStarveGuard enables the starvation-guard extension: a waiting
// request whose response ratio exceeds rr is pinned to the queue front so
// greedy insertion cannot starve long requests indefinitely. rr <= 0
// disables the guard (the paper's baseline).
func WithStarveGuard(rr float64) Option {
	return func(o *Options) { o.StarveGuardRR = rr }
}

// WithAlphaByClass assigns class-specific latency-target multipliers;
// classes absent from the map use the global α. The map is captured, not
// copied.
func WithAlphaByClass(byClass map[model.RequestClass]float64) Option {
	return func(o *Options) { o.AlphaByClass = byClass }
}

// WithArrivalRecorder records every admitted arrival (and any later
// cancellation) into rec in workload trace form, so the live run can be
// written with workload.WriteTrace and re-simulated deterministically
// through policy.Split.
func WithArrivalRecorder(rec *workload.Recorder) Option {
	return func(o *Options) { o.ArrivalRecorder = rec }
}

// WithFleet enables the elastic autoscaler: the server runs f.Max
// executors, keeps [Min, Max] of them actively placed on queue-depth and
// rolling-QoS signals, and drains-then-releases on sustained idle. The
// zero value keeps the fixed WithDevices fleet.
func WithFleet(f FleetOptions) Option {
	return func(o *Options) { o.Fleet = f }
}

// WithAdmission enables the front-door admission gate; rejected requests
// receive ErrAdmissionRejected and count under the shared
// trace.ReasonAdmission drop reason.
func WithAdmission(a AdmissionOptions) Option {
	return func(o *Options) { o.Admission = a }
}
