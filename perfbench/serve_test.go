package main

import (
	"errors"
	"testing"

	"split/internal/serve"
)

func TestOpenBlocks(t *testing.T) {
	catalog := tinyCatalog()
	outs := make([]reqOutcome, 2500)
	for i := range outs {
		outs[i] = reqOutcome{Model: "tiny", DueMs: float64(i), ReplyMs: float64(i) + 1,
			Reply: serve.InferReply{Model: "tiny", ResponseRatio: 2, E2EMs: 10}}
	}
	// The first block (1,250 requests) has 125 violations: 100 over RR 4
	// and 25 typed errors, which count as violating.
	for i := 0; i < 100; i++ {
		outs[i].Reply.ResponseRatio = 5
	}
	for i := 100; i < 125; i++ {
		outs[i].Err = serve.ErrDeadlineExceeded
	}
	bs := openBlocks(outs, catalog)
	if len(bs) != 2 {
		t.Fatalf("%d blocks of 2,500 requests, want 2", len(bs))
	}
	if bs[0].Viol4Pct != 10 || bs[1].Viol4Pct != 0 {
		t.Errorf("block viol %.2f%%, %.2f%%; want 10%%, 0%%", bs[0].Viol4Pct, bs[1].Viol4Pct)
	}
	if bs[0].N != 1225 || bs[0].P50Ms != 1 || bs[0].TailPct != 99 {
		t.Errorf("block 0 latency = %+v", bs[0])
	}
	if bs[1].JitterShortMs != 0 {
		t.Errorf("constant e2e has jitter %g", bs[1].JitterShortMs)
	}
	if one := openBlocks(outs[:999], catalog); len(one) != 1 || one[0].N != 974 {
		t.Errorf("999 requests: %d blocks, first with %d replies", len(one), one[0].N)
	}
}

func TestCheckOutcomes(t *testing.T) {
	ok := reqOutcome{Model: "tiny", DueMs: 0, ReplyMs: 2, Reply: serve.InferReply{Model: "tiny", ResponseRatio: 1.5, E2EMs: 1000}}
	cases := []struct {
		name     string
		outs     []reqOutcome
		problems int
	}{
		{"clean", []reqOutcome{ok, ok, {Model: "tiny", Err: serve.ErrQueueFull}}, 0},
		{"wrong model", []reqOutcome{ok, {Model: "tiny", Reply: serve.InferReply{Model: "vgg19", ResponseRatio: 1}}}, 1},
		{"rr below one", []reqOutcome{{Model: "tiny", Reply: serve.InferReply{Model: "tiny", ResponseRatio: 0.5}}}, 1},
		{"untyped error", []reqOutcome{ok, {Model: "tiny", Err: errors.New("connection reset")}}, 1},
	}
	for _, c := range cases {
		e := &env{metrics: map[string]float64{}}
		checkOutcomes(e, c.outs)
		if len(e.problems) != c.problems {
			t.Errorf("%s: problems %q, want %d", c.name, e.problems, c.problems)
		}
		if e.attempted != len(c.outs) {
			t.Errorf("%s: attempted %d, want %d", c.name, e.attempted, len(c.outs))
		}
	}
	e := &env{metrics: map[string]float64{}}
	replies := checkOutcomes(e, []reqOutcome{ok, ok, ok, {Model: "tiny", Err: serve.ErrQueueFull}})
	if replies != 3 || e.failed != 1 || e.metrics["fail_pct"] != 25 {
		t.Errorf("replies %d, failed %d, metrics %v", replies, e.failed, e.metrics)
	}
}
