package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"split/internal/trace"
)

func TestSpansWriteChromeTrace(t *testing.T) {
	r := newSpanRecorder(3)
	t0 := r.epoch.Add(time.Millisecond)
	r.add(span{Name: "request", ReqID: 7, Lane: 1, Start: t0, End: t0.Add(3 * time.Millisecond)})
	r.add(span{Name: "gen.late", Parent: "request", ReqID: 7, Lane: 1, Start: t0, End: t0.Add(-time.Microsecond)})
	if ms := r.time("core.Deploy", func() {}); ms < 0 {
		t.Errorf("span.time returned %g ms", ms)
	}
	r.add(span{Name: "over the limit", Start: t0, End: t0})
	var nilRecorder *spanRecorder
	nilRecorder.add(span{Name: "ignored"})

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidatePerfetto(data)
	if err != nil {
		t.Fatalf("invalid Chrome trace: %v\n%s", err, data)
	}
	if n != 3 {
		t.Errorf("%d events, want 3 (the fourth span is over the limit)", n)
	}
	for _, want := range []string{`"dropped_spans":1`, `"parent":"request"`, `"req":7`, `"ts":1000`, `"dur":3000`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace lacks %s:\n%s", want, data)
		}
	}
}
