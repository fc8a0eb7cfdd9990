package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share ReqID; Parent names the enclosing span ("" for a root).
type span struct {
	Name   string
	Parent string
	ReqID  int
	Lane   int // Chrome-trace thread: the client connection, 0 for set-up
	Start  time.Time
	End    time.Time
}

// spanRecorder keeps spans in memory for the traced run and writes them as
// Chrome-trace JSON at the end. A nil recorder records nothing, so the
// untraced run pays one nil check per call.
type spanRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
}

// newSpanRecorder keeps at most limit spans; later ones are counted as
// dropped so a long run cannot grow memory without bound.
func newSpanRecorder(limit int) *spanRecorder {
	return &spanRecorder{epoch: wallNow(), limit: limit}
}

// add records one finished span.
func (r *spanRecorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// time runs fn inside a span named name and returns fn's wall time in ms.
func (r *spanRecorder) time(name string, fn func()) float64 {
	t0 := wallNow()
	fn()
	t1 := wallNow()
	r.add(span{Name: name, Start: t0, End: t1})
	return float64(t1.Sub(t0)) / float64(time.Millisecond)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded spans to path as Chrome-trace JSON
// (chrome://tracing, Perfetto): one complete event per span, timestamps in
// microseconds since the recorder was made.
func (r *spanRecorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	enc := json.NewEncoder(w)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		// A due -> sent span can end a hair before it starts when the
		// send was on time; clock rounding is not negative latency.
		ev := chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: us(s.Start.Sub(r.epoch)), Dur: max(us(s.End.Sub(s.Start)), 0),
		}
		if s.ReqID != 0 || s.Parent != "" {
			ev.Args = map[string]any{"req": s.ReqID, "parent": s.Parent}
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	fmt.Fprintf(w, `],"otherData":{"dropped_spans":%d}}`, r.dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
