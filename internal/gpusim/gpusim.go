// Package gpusim is a discrete-event simulator of a single shared edge GPU.
//
// The paper's testbed (Jetson Nano + ONNX Runtime) executes work on a single
// device: sequentially under SPLIT/ClockWork/PREMA, concurrently under the
// multi-stream baselines. The simulator models exactly the quantities those
// systems' results depend on: a virtual clock, an event queue, and a
// contention model for concurrent streams (per-stream slowdown growing with
// the number of co-resident requests, capturing the §2.2 observation that
// operator-level contention makes short requests experience long-request
// latency).
package gpusim

import (
	"fmt"
	"math"
)

// Sim is the event loop. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events eventHeap
	seq    int
	// feed is the arrival stream installed by Stream; next indexes its
	// next undelivered arrival, whose time and sequence number are
	// nextAt and nextSeq. reserved is the last sequence number the
	// stream reserved for AtSeq.
	feed     Feed
	feedLen  int
	next     int
	nextAt   float64
	nextSeq  int
	reserved int
	// processed counts executed events, for loop-safety assertions.
	processed int
	// MaxEvents aborts runs that exceed this many events (guards against
	// accidental infinite event loops in policy code). 0 means no limit.
	MaxEvents int
}

// Feed is a time-ordered arrival stream that the event loop merges
// against its heap (see Sim.Stream), so a trace of n arrivals costs
// neither n heap entries nor n callbacks.
type Feed interface {
	// Len is the number of arrivals.
	Len() int
	// AtMs is arrival i's time; it must not decrease with i.
	AtMs(i int) float64
	// Reserved is how many sequence numbers arrival i reserves, after its
	// own, for events it schedules with AtSeq when it fires (a client
	// cancel, say).
	Reserved(i int) int
	// Arrive delivers arrival i at now. seq is the arrival's own sequence
	// number; its reserved ones are seq+1 through seq+Reserved(i).
	Arrive(i int, now float64, seq int)
}

// New returns an empty simulator at time 0.
func New() *Sim {
	return &Sim{MaxEvents: 50_000_000}
}

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() int { return s.processed }

// Stream installs f as the simulator's arrival stream. Events and
// arrivals run in (time, sequence number) order. Arrival i's sequence
// number follows those of the arrivals before it and their reserved
// ones, and every event scheduled with At is numbered after the whole
// stream. That is the order scheduling each arrival (and each reserved
// event) with At before running would give, without holding them on the
// heap: the heap keeps only the events in flight. Stream must be called
// once, before any event is scheduled; it panics on an arrival time At
// would reject and on a stream that is not time-ordered.
func (s *Sim) Stream(f Feed) {
	if s.feed != nil || len(s.events) > 0 || s.seq > 0 {
		panic("gpusim: Stream must be installed once, before any event")
	}
	n := f.Len()
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		at := s.checkTime(f.AtMs(i))
		if at < prev {
			panic(fmt.Sprintf("gpusim: stream arrival %d at %.6f before arrival %d at %.6f", i, at, i-1, prev))
		}
		prev = at
		s.seq += 1 + f.Reserved(i)
	}
	s.feed, s.feedLen, s.reserved = f, n, s.seq
	if n > 0 {
		s.nextAt, s.nextSeq = s.checkTime(f.AtMs(0)), 1
	}
}

// checkTime validates an event time against the clock, clamping the
// sub-nanosecond float drift below now to now.
func (s *Sim) checkTime(atMs float64) float64 {
	if atMs < s.now-1e-9 {
		panic(fmt.Sprintf("gpusim: scheduling event at %.6f before now %.6f", atMs, s.now))
	}
	if math.IsNaN(atMs) || math.IsInf(atMs, 0) {
		panic(fmt.Sprintf("gpusim: invalid event time %v", atMs))
	}
	if atMs < s.now {
		atMs = s.now
	}
	return atMs
}

// At schedules fn to run at absolute time atMs (>= Now). Scheduling in the
// past panics: it always indicates a policy bug.
//
// Events are stored by value in a hand-rolled binary heap: scheduling does
// not allocate beyond the amortized growth of the heap's backing array
// (container/heap would heap-allocate and interface-box every event).
//
//lint:hotpath every device hold schedules its boundary event here
func (s *Sim) At(atMs float64, fn func(now float64)) {
	s.seq++
	s.push(s.checkTime(atMs), s.seq, fn)
}

// AtSeq schedules fn at atMs under seq, a sequence number the stream
// reserved for the arrival that is firing (see Feed.Reserved).
func (s *Sim) AtSeq(atMs float64, seq int, fn func(now float64)) {
	if seq < 1 || seq > s.reserved {
		panic(fmt.Sprintf("gpusim: sequence number %d was not reserved by the stream", seq))
	}
	s.push(s.checkTime(atMs), seq, fn)
}

// push puts one validated event on the heap.
//
//lint:hotpath every scheduled event is pushed here
func (s *Sim) push(atMs float64, seq int, fn func(now float64)) {
	//lint:ignore hotalloc amortized heap growth: the backing array reaches steady state and is reused
	s.events = append(s.events, event{at: atMs, seq: seq, fn: fn})
	s.events.siftUp(len(s.events) - 1)
}

// After schedules fn to run delayMs milliseconds from now.
//
//lint:hotpath the grant path schedules block-boundary timers through here
func (s *Sim) After(delayMs float64, fn func(now float64)) {
	s.At(s.now+delayMs, fn)
}

// Run executes events and stream arrivals until both are exhausted and
// returns the final time.
func (s *Sim) Run() float64 {
	for s.step(math.Inf(1)) {
	}
	return s.now
}

// RunUntil executes events and arrivals with time <= t, then sets the
// clock to t.
func (s *Sim) RunUntil(t float64) {
	for s.step(t) {
	}
	if t > s.now {
		s.now = t
	}
}

// step runs the earliest of the next stream arrival and the heap's top
// event, by (time, sequence number), if it is due by t, and reports
// whether it ran one.
//
//lint:hotpath the event loop: every arrival and every boundary passes here
func (s *Sim) step(t float64) bool {
	if s.next < s.feedLen && s.nextAt <= t &&
		(len(s.events) == 0 || s.nextAt < s.events[0].at ||
			(s.nextAt == s.events[0].at && s.nextSeq < s.events[0].seq)) {
		s.arrive()
		return true
	}
	if len(s.events) == 0 || s.events[0].at > t {
		return false
	}
	ev := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events[last] = event{} // release the callback so the array retains nothing
	s.events = s.events[:last]
	if last > 0 {
		s.events.siftDown(0)
	}
	s.now = ev.at
	s.count()
	ev.fn(s.now)
	return true
}

// arrive delivers the stream's next arrival and advances the cursor.
//
//lint:hotpath every stream arrival is delivered here
func (s *Sim) arrive() {
	i, seq := s.next, s.nextSeq
	s.now = s.nextAt
	s.next++
	if s.next < s.feedLen {
		if s.nextAt = s.feed.AtMs(s.next); s.nextAt < s.now {
			s.nextAt = s.now
		}
		s.nextSeq = seq + 1 + s.feed.Reserved(i)
	}
	s.count()
	s.feed.Arrive(i, s.now, seq)
}

// count tallies one executed event against the MaxEvents budget.
func (s *Sim) count() {
	s.processed++
	if s.MaxEvents > 0 && s.processed > s.MaxEvents {
		panic("gpusim: event budget exceeded (runaway simulation)")
	}
}

// Pending returns the number of queued events, undelivered stream
// arrivals excluded: with a stream installed, the heap holds only the
// boundary timers in flight and the events arrivals scheduled with AtSeq.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at  float64
	seq int // FIFO tie-break for simultaneous events
	fn  func(now float64)
}

// eventHeap is a min-heap of events by (at, seq), stored by value. The
// sift operations are the textbook binary-heap ones; because (at, seq) is
// a strict total order, pop order is identical to container/heap's.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	for {
		smallest := i
		if l := 2*i + 1; l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Contention models the per-stream slowdown of concurrent GPU execution:
// with k requests co-resident on the device, each runs Inflation(k) times
// slower than isolated. The default is calibrated so that heavy multi-stream
// sharing roughly halves per-stream throughput at 4-way concurrency, which
// matches the "serious resource contention" the paper attributes to the
// Stream-Parallel approach.
type Contention struct {
	// Gamma is the per-extra-stream slowdown coefficient.
	Gamma float64
	// Cap bounds the inflation factor (hardware can't get arbitrarily slow).
	Cap float64
}

// DefaultContention returns the calibrated contention model.
func DefaultContention() Contention {
	return Contention{Gamma: 0.25, Cap: 3.0}
}

// Inflation returns the slowdown factor for k co-resident requests (k >= 1).
func (c Contention) Inflation(k int) float64 {
	if k <= 1 {
		return 1
	}
	f := 1 + c.Gamma*float64(k-1)
	if c.Cap > 0 && f > c.Cap {
		f = c.Cap
	}
	return f
}
