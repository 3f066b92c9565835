package sim

import (
	"testing"
	"time"
)

// Regression: a re-armable event that is cancelled and then re-Scheduled
// must fire exactly once — Schedule has to clear the stale cancelled flag —
// and Pending must be exact at every step of the lifecycle.
func TestCancelReArmFirePendingAccounting(t *testing.T) {
	k := New(1)
	n := 0
	e := k.NewEvent(func() { n++ })

	k.Schedule(e, 10)
	if k.Pending() != 1 {
		t.Fatalf("Pending after arm = %d, want 1", k.Pending())
	}
	if !e.Cancel() {
		t.Fatal("first Cancel must report effect")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending after cancel = %d, want 0", k.Pending())
	}
	k.Schedule(e, 20) // re-arm while the cancelled entry is still queued
	if k.Pending() != 1 {
		t.Fatalf("Pending after re-arm = %d, want 1", k.Pending())
	}
	k.Run()
	if n != 1 {
		t.Fatalf("event fired %d times, want 1", n)
	}
	if k.Now() != 20 {
		t.Fatalf("fired at %v, want 20", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending after fire = %d, want 0", k.Pending())
	}
}

// Regression: repeat Cancel must be idempotent — the second call reports no
// effect and must not double-decrement Pending.
func TestCancelCancelIdempotent(t *testing.T) {
	k := New(1)
	e := k.NewEvent(func() {})
	other := k.After(time.Millisecond, func() {})
	_ = other

	k.Schedule(e, 10)
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	if !e.Cancel() {
		t.Fatal("first Cancel must report effect")
	}
	if e.Cancel() {
		t.Fatal("second Cancel must be a no-op")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1 (double-decrement?)", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", k.Pending())
	}
}

// A full lifecycle chain: arm → cancel → re-arm → cancel → cancel → re-arm
// → fire. The event must fire exactly once, at the final schedule time.
func TestCancelReArmChain(t *testing.T) {
	k := New(1)
	var fired []Time
	e := k.NewEvent(func() { fired = append(fired, k.Now()) })
	k.Schedule(e, 5)
	e.Cancel()
	k.Schedule(e, 10)
	e.Cancel()
	e.Cancel() // idempotent repeat on a re-armed-then-cancelled event
	k.Schedule(e, 15)
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("fired = %v, want [15]", fired)
	}
}

// Re-arming an AfterFree event from user code would corrupt the free list;
// the kernel must refuse.
func TestSchedulePooledEventPanics(t *testing.T) {
	k := New(1)
	k.AfterFree(time.Millisecond, func() {})
	e := k.wheel.peek(maxTime).ev // the pooled event (test-internal access)
	defer func() {
		if recover() == nil {
			t.Error("Schedule on a pooled event must panic")
		}
	}()
	k.Schedule(e, 2*time.Millisecond)
}

// Satellite regression for the nextSource restructure: events from every
// source (heap via At, immediate via Defer, and two pending batches) sharing
// one timestamp must run in global creation (seq) order — the batches must
// compete on (when, seq) like everyone else.
func TestSameInstantTieOrderAcrossAllSources(t *testing.T) {
	k := New(1)
	at := 5 * time.Millisecond
	var got []string
	// seq 0: heap event — fires first at t, and its Defer lands after
	// every same-instant entry created before it runs... Defer stamps
	// (now, next seq), so it runs last. Creation order below is the
	// expected execution order, except the deferred entry which is
	// created at fire time and therefore runs last.
	k.At(at, func() {
		got = append(got, "heap")
		k.Defer(func() { got = append(got, "defer") })
	})
	// seq 1..2: batch A, whose tail extends past the instant.
	atBatch(k, []Time{at, at + time.Millisecond}, func(i int) { got = append(got, "laneA") })
	// seq 3: second heap event at the same instant.
	k.At(at, func() { got = append(got, "heap2") })
	// seq 4..5: batch B, starting before batch A's tail — it still
	// interleaves purely by seq.
	atBatch(k, []Time{at, at}, func(i int) { got = append(got, "laneB") })
	if len(k.staged) != 2 {
		t.Fatalf("pending batches = %d, want 2", len(k.staged))
	}
	k.Run()
	want := []string{"heap", "laneA", "heap2", "laneB", "laneB", "defer", "laneA"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// Overlapping monotone batches must stay off the heap entirely (each pending
// in the batch list) and drain in global (time, seq) order.
func TestAtBatchMultiLaneStaysOffHeap(t *testing.T) {
	k := New(1)
	var got []int
	atBatch(k, []Time{1 * time.Millisecond, 10 * time.Millisecond}, func(i int) { got = append(got, 10+i) })
	atBatch(k, []Time{2 * time.Millisecond, 3 * time.Millisecond}, func(i int) { got = append(got, 20+i) })
	atBatch(k, []Time{2 * time.Millisecond, 12 * time.Millisecond}, func(i int) { got = append(got, 30+i) })
	if n := k.wheel.entries(); n != 0 {
		t.Fatalf("wheel has %d events, want 0 (batches must stay in the batch list)", n)
	}
	if len(k.staged) != 3 {
		t.Fatalf("pending batches = %d, want 3", len(k.staged))
	}
	k.Run()
	want := []int{10, 20, 30, 21, 11, 31}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// A spent batch must leave the list, so it holds only what is pending and
// does not grow with the number of batches ever staged.
func TestAtBatchLaneReuse(t *testing.T) {
	k := New(1)
	for round := 0; round < 100; round++ {
		base := Time(round) * time.Millisecond
		atBatch(k, []Time{base, base + time.Microsecond}, func(int) {})
		atBatch(k, []Time{base, base + 2*time.Microsecond}, func(int) {})
		k.RunUntil(base + time.Millisecond/2)
	}
	if len(k.staged) != 0 || k.Stats().LanesHighWater != 2 {
		t.Fatalf("pending batches = %d, peak %d; want 0 and 2 (spent batches must leave the list)",
			len(k.staged), k.Stats().LanesHighWater)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

// RunUntilBefore executes strictly-before events and leaves the clock on
// the last executed event, never advancing to the bound.
func TestRunUntilBefore(t *testing.T) {
	k := New(1)
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.RunUntilBefore(15)
	if len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf("executed %v, want [5 10]", got)
	}
	if k.Now() != 10 {
		t.Fatalf("Now = %v, want 10 (clock must not advance to the bound)", k.Now())
	}
	// Scheduling between the last event and the bound must still work.
	k.At(12, func() { got = append(got, 12) })
	k.Run()
	want := []Time{5, 10, 12, 15, 20}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("executed %v, want %v", got, want)
		}
	}
}
