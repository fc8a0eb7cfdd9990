package sched

import (
	"testing"
)

func TestDeadlinePredicates(t *testing.T) {
	r := newReq(1, "m", 100, 30, 10, 10, 10)
	if r.Expired(1e9) || r.Doomed(1e9) {
		t.Error("request without a deadline expired")
	}
	r.SetDeadline(4) // deadline = 100 + 4*30 = 220
	if r.DeadlineMs != 220 {
		t.Fatalf("deadline = %v, want 220", r.DeadlineMs)
	}
	if r.Expired(220) {
		t.Error("expired exactly at the deadline")
	}
	if !r.Expired(220.001) {
		t.Error("not expired past the deadline")
	}
	// Doomed once now + remaining (30) > 220, i.e. now > 190.
	if r.Doomed(190) {
		t.Error("doomed while still feasible")
	}
	if !r.Doomed(190.001) {
		t.Error("not doomed when infeasible")
	}
	// Committed blocks shrink the remaining work and the doom horizon.
	r.Next = 2
	if r.Doomed(205) {
		t.Error("doomed with only one block left and 15 ms of slack")
	}

	// AlphaOverride flows into the deadline.
	o := newReq(2, "m", 0, 10)
	o.AlphaOverride = 2
	o.SetDeadline(4)
	if o.DeadlineMs != 20 {
		t.Errorf("override deadline = %v, want 20", o.DeadlineMs)
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(4)
	a := newReq(1, "a", 0, 10)
	b := newReq(2, "b", 1, 20)
	c := newReq(3, "c", 2, 30)
	for _, r := range []*Request{a, b, c} {
		q.PushBack(r)
	}
	if got := q.Remove(99); got != nil {
		t.Errorf("removed unknown id: %+v", got)
	}
	if got := q.Remove(2); got != b {
		t.Fatalf("removed %+v, want request 2", got)
	}
	if q.Len() != 2 || q.At(0) != a || q.At(1) != c {
		t.Errorf("order after remove: %d requests", q.Len())
	}
	// The vacated tail slot must not retain the shifted pointer.
	if q.reqs[:3][2] != nil {
		t.Error("tail slot retains a request after Remove")
	}
}

func TestSweepExpired(t *testing.T) {
	q := NewQueue(4)
	mk := func(id int, deadlineMs float64, blocks ...float64) *Request {
		r := newReq(id, "m", 0, 10, blocks...)
		r.DeadlineMs = deadlineMs
		return r
	}
	fresh := mk(1, 0, 10)       // no deadline: never shed
	alive := mk(2, 100, 10)     // feasible
	expired := mk(3, 40, 10)    // already past at now=50
	doomed := mk(4, 55, 10, 10) // 50 + 20 remaining > 55
	for _, r := range []*Request{fresh, alive, expired, doomed} {
		q.PushBack(r)
	}

	shed := q.SweepExpired(50, false)
	if len(shed) != 1 || shed[0] != expired {
		t.Fatalf("non-predictive sweep shed %d requests", len(shed))
	}
	if q.Len() != 3 || q.At(0) != fresh || q.At(1) != alive || q.At(2) != doomed {
		t.Errorf("survivor order broken: len=%d", q.Len())
	}

	shed = q.SweepExpired(50, true)
	if len(shed) != 1 || shed[0] != doomed {
		t.Fatalf("predictive sweep shed %d requests", len(shed))
	}
	if q.Len() != 2 {
		t.Errorf("queue len after sweeps = %d, want 2", q.Len())
	}
	// Vacated tail slots must be nilled so shed requests are not retained.
	backing := q.reqs[:4]
	if backing[2] != nil || backing[3] != nil {
		t.Error("sweep left shed requests in the backing array")
	}
}

// TestPopFrontReleasesSlot pins the retention bugfix: the popped head slot
// must be nilled so the backing array no longer references the request.
func TestPopFrontReleasesSlot(t *testing.T) {
	q := NewQueue(4)
	q.PushBack(newReq(1, "a", 0, 10))
	q.PushBack(newReq(2, "b", 1, 10))
	backing := q.reqs // alias the backing array before popping
	if r := q.PopFront(); r == nil || r.ID != 1 {
		t.Fatalf("popped %+v", r)
	}
	if backing[0] != nil {
		t.Error("popped slot still references the request")
	}
	if backing[1] == nil {
		t.Error("live slot was cleared")
	}
}

// TestPopFrontCompacts pins head-capacity reclamation: the slots sustained
// pops free at the head of the backing array are reused by later
// insertions instead of stranding an ever-growing dead head region.
func TestPopFrontCompacts(t *testing.T) {
	q := NewQueue(4)
	const deep = 128
	for i := 0; i < deep; i++ {
		q.PushBack(newReq(i, "m", float64(i), 10))
	}
	backing := cap(q.buf)
	for q.Len() > deep/4 {
		if q.PopFront() == nil {
			t.Fatal("queue drained early")
		}
	}
	// Refill to the original depth: every request past the array's end
	// must land in a slot freed at its head.
	for i := deep; q.Len() < deep; i++ {
		q.PushBack(newReq(i, "m", float64(i), 10))
	}
	if cap(q.buf) != backing {
		t.Errorf("backing array regrew from %d to %d slots with its head free", backing, cap(q.buf))
	}
	// Everything still present and ordered.
	for i := 1; i < q.Len(); i++ {
		if q.At(i).ID <= q.At(i-1).ID {
			t.Fatalf("order broken at %d: %d after %d", i, q.At(i).ID, q.At(i-1).ID)
		}
	}
	assertNoLeakedSlots(t, q)
}

// TestShallowQueueCycleAllocs pins the queue's steady state on a lane that
// is almost always 0-1 deep: once warm, an insert/pop cycle reuses the
// backing array and allocates nothing, whether the queue oscillates
// between 0 and 1 or between 1 and 2.
func TestShallowQueueCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	q := NewQueue(4)
	a, b := newReq(1, "a", 0, 10), newReq(2, "b", 0, 20)
	cycle := func() {
		q.InsertGreedy(0, a)
		if q.PopFront() != a {
			t.Fatal("popped the wrong request")
		}
	}
	cycle() // warm-up: the first insertion sizes the backing array
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("0-1-deep insert/pop cycle: %v allocs/op, want 0", avg)
	}
	q.PushBack(b)
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("1-2-deep insert/pop cycle: %v allocs/op, want 0", avg)
	}
	assertNoLeakedSlots(t, q)
}

// TestQueueSteadyStateAllocs bounds the per-operation allocations of a
// sustained push/pop cycle: moving the live window back over freed head
// slots must stay amortized, not copy on every pop.
func TestQueueSteadyStateAllocs(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 8; i++ {
		q.PushBack(newReq(i, "m", float64(i), 10))
	}
	id := 100
	avg := testing.AllocsPerRun(2000, func() {
		r := q.PopFront()
		r.ID = id
		r.ArriveMs = float64(id)
		id++
		q.PushBack(r)
	})
	// Each cycle may amortize an append regrowth or a window move, but
	// not both at full cost every time.
	if avg > 1.5 {
		t.Errorf("steady-state allocs/op = %v, want <= 1.5", avg)
	}
}
