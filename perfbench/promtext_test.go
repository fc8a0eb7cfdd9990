package main

import (
	"bytes"
	"math"
	"testing"

	"split/internal/obs"
)

// registryText renders a small registry holding the families the
// benchmark reads, as the server registers them.
func registryText(t *testing.T, fill func(*obs.Registry)) promText {
	t.Helper()
	reg := obs.NewRegistry()
	fill(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := parsePromText(buf.String())
	if err != nil {
		t.Fatalf("parse:\n%s\n%v", buf.String(), err)
	}
	return p
}

func TestPromTextObsFamilies(t *testing.T) {
	var wait *obs.Histogram
	before := registryText(t, func(reg *obs.Registry) {
		reg.Counter(obs.MetricPreemptions, "p").Add(3)
		reg.Counter(obs.MetricDropsTotal, "d", "reason", "queue_full").Add(2)
		reg.Counter(obs.MetricDropsTotal, "d", "reason", "deadline").Add(1)
		reg.Gauge(obs.MetricDeviceBusyMs, "b", "device", "0").Set(12.5)
		reg.Gauge(obs.MetricDeviceBusyMs, "b", "device", "1").Set(7.5)
		wait = reg.Histogram(obs.MetricWaitMs, "w", []float64{1, 2, 4})
		for _, v := range []float64{0.5, 1.5, 1.5, 3} {
			wait.Observe(v)
		}
	})
	if got := before.sum(obs.MetricPreemptions, "", ""); got != 3 {
		t.Errorf("preemptions = %g", got)
	}
	if got := before.sum(obs.MetricDropsTotal, "", ""); got != 3 {
		t.Errorf("drops = %g", got)
	}
	if got := before.sum(obs.MetricDropsTotal, "reason", "queue_full"); got != 2 {
		t.Errorf("queue_full drops = %g", got)
	}
	if got := before.sum(obs.MetricDeviceBusyMs, "", ""); got != 20 {
		t.Errorf("busy ms = %g", got)
	}
	// Buckets: le=1:1, le=2:3, le=4:4, +Inf:4. The median (2 of 4) falls
	// in (1,2], halfway through its two samples.
	if got := before.histQuantile(obs.MetricWaitMs, 0.5, nil); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %g, want 1.5", got)
	}
	if got := before.histQuantile(obs.MetricWaitMs, 1, nil); got != 4 {
		t.Errorf("p100 = %g, want 4", got)
	}
	// A later scrape minus the earlier one covers only the new samples.
	after := registryText(t, func(reg *obs.Registry) {
		h := reg.Histogram(obs.MetricWaitMs, "w", []float64{1, 2, 4})
		for _, v := range []float64{0.5, 1.5, 1.5, 3, 3.5, 3.5} {
			h.Observe(v)
		}
	})
	if got := after.histQuantile(obs.MetricWaitMs, 0.5, before); math.Abs(got-3) > 1e-9 {
		t.Errorf("delta p50 = %g, want 3 (both new samples in (2,4])", got)
	}
	if got := before.histQuantile("split_missing", 0.5, nil); got != 0 {
		t.Errorf("missing family quantile = %g", got)
	}
}

func TestPromTextErrors(t *testing.T) {
	for _, bad := range []string{
		"split_x",
		"split_x{a=\"1\" 3",
		"split_x{a=1} 3",
		"split_x notanumber",
	} {
		if _, err := parsePromText(bad + "\n"); err == nil {
			t.Errorf("parsePromText(%q) succeeded", bad)
		}
	}
	p, err := parsePromText("# HELP x y\n# TYPE x counter\n\nx{a=\"1\",b=\"2\"} 5\n")
	if err != nil || len(p) != 1 || p[0].Labels["b"] != "2" || p[0].Value != 5 {
		t.Errorf("parse = %+v, %v", p, err)
	}
}
