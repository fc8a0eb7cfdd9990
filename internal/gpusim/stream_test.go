package gpusim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// streamArrival is one arrival of a test stream: when it fires it starts
// one timer per delay in timers, and the events it reserves run at the
// times in reserved (none before the arrival itself).
type streamArrival struct {
	at       float64
	reserved []float64
	timers   []float64
}

// logFeed streams arrivals into sim, logging every arrival, reserved
// event and timer with the time it ran.
type logFeed struct {
	sim      *Sim
	arrivals []streamArrival
	log      []string
}

func (f *logFeed) Len() int           { return len(f.arrivals) }
func (f *logFeed) AtMs(i int) float64 { return f.arrivals[i].at }
func (f *logFeed) Reserved(i int) int { return len(f.arrivals[i].reserved) }
func (f *logFeed) record(what string) { f.log = append(f.log, fmt.Sprintf("%g %s", f.sim.Now(), what)) }
func (f *logFeed) reservedFn(i, k int) func(float64) {
	return func(float64) { f.record(fmt.Sprintf("reserved %d.%d", i, k)) }
}

func (f *logFeed) Arrive(i int, _ float64, seq int) {
	for k, at := range f.arrivals[i].reserved {
		f.sim.AtSeq(at, seq+1+k, f.reservedFn(i, k))
	}
	f.fire(i)
}

// fire logs arrival i and starts its timers; each timer starts one
// follow-up timer at the same delay, so timers also tie with each other.
func (f *logFeed) fire(i int) {
	f.record(fmt.Sprintf("arrive %d", i))
	for k, d := range f.arrivals[i].timers {
		i, k, d := i, k, d
		f.sim.After(d, func(float64) {
			f.record(fmt.Sprintf("timer %d.%d", i, k))
			f.sim.After(d, func(float64) { f.record(fmt.Sprintf("follow %d.%d", i, k)) })
		})
	}
}

// preScheduled runs arrivals the way the simulator did before streams:
// every arrival and every reserved event is put on the heap up front.
func preScheduled(arrivals []streamArrival) []string {
	f := &logFeed{sim: New(), arrivals: arrivals}
	for i, a := range arrivals {
		i := i
		f.sim.At(a.at, func(float64) { f.fire(i) })
		for k, at := range a.reserved {
			f.sim.At(at, f.reservedFn(i, k))
		}
	}
	f.sim.Run()
	return f.log
}

// streamed runs the same arrivals through Stream.
func streamed(arrivals []streamArrival) ([]string, int) {
	f := &logFeed{sim: New(), arrivals: arrivals}
	f.sim.Stream(f)
	deepest := 0
	for f.sim.step(1e18) {
		deepest = max(deepest, f.sim.Pending())
	}
	return f.log, deepest
}

// TestStreamMatchesPreScheduling checks the stream's defining promise on
// random traces dense with ties: arrivals, reserved events and timers run
// in exactly the order pre-scheduling every arrival and reserved event
// would give, while the heap holds only events the arrivals scheduled,
// never the arrivals themselves.
func TestStreamMatchesPreScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		arrivals := make([]streamArrival, n)
		at := 0.0
		scheduled := 0
		for i := range arrivals {
			at += float64(rng.Intn(3)) // integer instants: many exact ties
			a := streamArrival{at: at}
			for k := rng.Intn(3); k > 0; k-- {
				a.reserved = append(a.reserved, at+float64(rng.Intn(3)))
			}
			for k := rng.Intn(3); k > 0; k-- {
				a.timers = append(a.timers, float64(rng.Intn(3)))
			}
			scheduled += len(a.reserved) + len(a.timers)
			arrivals[i] = a
		}
		want := preScheduled(arrivals)
		got, deepest := streamed(arrivals)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: streamed order\n%v\nwant pre-scheduled order\n%v", trial, got, want)
		}
		if deepest > scheduled {
			t.Fatalf("trial %d: heap reached %d events; the arrivals schedule %d at a time at most",
				trial, deepest, scheduled)
		}
	}
}

func TestStreamRunUntil(t *testing.T) {
	f := &logFeed{sim: New(), arrivals: []streamArrival{{at: 1}, {at: 5}, {at: 9}}}
	f.sim.Stream(f)
	f.sim.RunUntil(5)
	if want := []string{"1 arrive 0", "5 arrive 1"}; !reflect.DeepEqual(f.log, want) {
		t.Fatalf("RunUntil(5) ran %v, want %v", f.log, want)
	}
	if f.sim.Now() != 5 {
		t.Errorf("clock at %v, want 5", f.sim.Now())
	}
	if end := f.sim.Run(); end != 9 || len(f.log) != 3 {
		t.Errorf("Run ended at %v after %v", end, f.log)
	}
	if f.sim.Processed() != 3 {
		t.Errorf("processed %d events, want 3 arrivals", f.sim.Processed())
	}
}

func TestStreamMisusePanics(t *testing.T) {
	cases := map[string]func(){
		"unordered": func() {
			s := New()
			s.Stream(&logFeed{sim: s, arrivals: []streamArrival{{at: 2}, {at: 1}}})
		},
		"after an event": func() {
			s := New()
			s.At(1, func(float64) {})
			s.Stream(&logFeed{sim: s, arrivals: []streamArrival{{at: 2}}})
		},
		"twice": func() {
			s := New()
			s.Stream(&logFeed{sim: s})
			s.Stream(&logFeed{sim: s})
		},
		"negative time": func() {
			s := New()
			s.Stream(&logFeed{sim: s, arrivals: []streamArrival{{at: -1}}})
		},
		"unreserved seq": func() {
			s := New()
			s.Stream(&logFeed{sim: s, arrivals: []streamArrival{{at: 1, reserved: []float64{2}}}})
			s.AtSeq(3, 3, func(float64) {})
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}
