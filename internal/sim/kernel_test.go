package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	if len(got) != 100 {
		t.Fatalf("executed %d events, want 100", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[i])
		}
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	ran := false
	e := k.After(time.Second, func() { ran = true })
	if !e.Cancel() {
		t.Fatal("Cancel() = false on pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel() = true")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelFired(t *testing.T) {
	k := New(1)
	e := k.After(0, func() {})
	k.Run()
	if e.Cancel() {
		t.Fatal("Cancel() = true on fired event")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var got []int
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.RunUntil(2 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", k.Now())
	}
	k.Run()
	if len(got) != 2 {
		t.Fatalf("remaining event did not run: %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			k.After(time.Millisecond, rec)
		}
	}
	k.After(0, rec)
	k.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if k.Now() != 49*time.Millisecond {
		t.Errorf("Now() = %v, want 49ms", k.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		k := New(seed)
		var stamps []time.Duration
		for i := 0; i < 200; i++ {
			d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
			k.After(d, func() { stamps = append(stamps, k.Now()) })
		}
		k.Run()
		return stamps
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of scheduled delays, events fire in nondecreasing
// time order and the final clock equals the max delay.
func TestQuickEventOrderInvariant(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		if len(delaysMS) == 0 {
			return true
		}
		k := New(7)
		var fired []time.Duration
		var max time.Duration
		for _, ms := range delaysMS {
			d := time.Duration(ms) * time.Millisecond
			if d > max {
				max = d
			}
			k.After(d, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return k.Now() == max && len(fired) == len(delaysMS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestStepsAndPending(t *testing.T) {
	k := New(1)
	k.After(time.Millisecond, func() {})
	k.After(2*time.Millisecond, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", k.Pending())
	}
	k.Run()
	if k.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2", k.Steps())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestDeferRunsAfterSameInstantEvents(t *testing.T) {
	k := New(1)
	var got []int
	k.After(0, func() { got = append(got, 1) })
	k.Defer(func() { got = append(got, 2) })
	k.After(0, func() { got = append(got, 3) })
	k.Defer(func() { got = append(got, 4) })
	k.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestDeferFromFutureEvent(t *testing.T) {
	k := New(1)
	var got []string
	k.After(time.Second, func() {
		k.Defer(func() { got = append(got, "deferred@1s") })
		got = append(got, "timer@1s")
	})
	k.After(2*time.Second, func() { got = append(got, "timer@2s") })
	k.Run()
	if len(got) != 3 || got[0] != "timer@1s" || got[1] != "deferred@1s" || got[2] != "timer@2s" {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now() = %v", k.Now())
	}
}

func TestAfterFreeOrderingAndReuse(t *testing.T) {
	k := New(1)
	var got []int
	// Interleave pooled and regular events at identical timestamps; the
	// free-list recycling must not disturb (time, seq) ordering.
	for round := 0; round < 3; round++ {
		round := round
		k.AfterFree(time.Duration(round)*time.Millisecond, func() {
			got = append(got, round*2)
			k.AfterFree(time.Microsecond, func() { got = append(got, round*2+1) })
		})
	}
	k.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAfterFreeZeroDelay(t *testing.T) {
	k := New(1)
	ran := false
	k.AfterFree(0, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("AfterFree(0) did not run")
	}
}

// atBatch stages a literal schedule: fn(i) at times[i], read in place.
func atBatch(k *Kernel, times []Time, fn func(int)) {
	k.AtBatch(len(times), func(i int) Time { return times[i] }, fn)
}

func TestAtBatchFiresInOrder(t *testing.T) {
	k := New(1)
	times := []Time{time.Millisecond, time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	var idxs []int
	var stamps []Time
	atBatch(k, times, func(i int) {
		idxs = append(idxs, i)
		stamps = append(stamps, k.Now())
	})
	// A heap event between batch entries must interleave correctly.
	k.After(3*time.Millisecond, func() { idxs = append(idxs, -1) })
	k.Run()
	want := []int{0, 1, -1, 2, 3}
	for i := range want {
		if i >= len(idxs) || idxs[i] != want[i] {
			t.Fatalf("order = %v, want %v", idxs, want)
		}
	}
	for i, at := range []Time{time.Millisecond, time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		if stamps[i] != at {
			t.Fatalf("entry %d fired at %v, want %v", i, stamps[i], at)
		}
	}
}

func TestAtBatchNonMonotonePanics(t *testing.T) {
	k := New(1)
	defer func() {
		if recover() == nil {
			t.Error("non-monotone AtBatch did not panic")
		}
	}()
	atBatch(k, []Time{time.Second, time.Millisecond}, func(int) {})
}

func TestAtBatchPastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtBatch in the past did not panic")
			}
		}()
		atBatch(k, []Time{0}, func(int) {})
	})
	k.Run()
}

func TestAtBatchOverlapFallsBackToHeap(t *testing.T) {
	k := New(1)
	var got []int
	atBatch(k, []Time{time.Millisecond, 10 * time.Millisecond}, func(i int) { got = append(got, 10+i) })
	// Second batch starts before the first batch's tail: the kernel must
	// still execute everything in global (time, seq) order.
	atBatch(k, []Time{2 * time.Millisecond, 3 * time.Millisecond}, func(i int) { got = append(got, 20+i) })
	k.Run()
	want := []int{10, 20, 21, 11}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAtBatchEmpty(t *testing.T) {
	k := New(1)
	atBatch(k, nil, func(int) {})
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after empty batch", k.Pending())
	}
}

// Pending must exclude cancelled events immediately, even though their heap
// entries drain lazily (the regression of the old len(queue) semantics).
func TestPendingExcludesCancelled(t *testing.T) {
	k := New(1)
	a := k.After(time.Millisecond, func() {})
	b := k.After(2*time.Millisecond, func() {})
	c := k.After(3*time.Millisecond, func() {})
	_ = a
	if k.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", k.Pending())
	}
	b.Cancel()
	if k.Pending() != 2 {
		t.Fatalf("Pending() after Cancel = %d, want 2", k.Pending())
	}
	b.Cancel() // double cancel must not double-decrement
	if k.Pending() != 2 {
		t.Fatalf("Pending() after double Cancel = %d, want 2", k.Pending())
	}
	c.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", k.Pending())
	}
	if k.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1 (cancelled events must not fire)", k.Steps())
	}
}

// Cancelled events at the heap top are drained without firing, and a
// cancelled head must not mask a later live event (peek-drain behavior).
func TestCancelledHeadDrained(t *testing.T) {
	k := New(1)
	e := k.After(time.Millisecond, func() { t.Error("cancelled event ran") })
	ran := false
	k.After(time.Second, func() { ran = true })
	e.Cancel()
	k.RunUntil(time.Minute)
	if !ran {
		t.Fatal("live event behind cancelled head did not run")
	}
	if k.Pending() != 0 || k.Steps() != 1 {
		t.Fatalf("Pending/Steps = %d/%d, want 0/1", k.Pending(), k.Steps())
	}
}

func TestPendingCountsDeferAndBatch(t *testing.T) {
	k := New(1)
	k.Defer(func() {})
	k.AfterFree(time.Millisecond, func() {})
	atBatch(k, []Time{time.Second}, func(int) {})
	if k.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestRunUntilWithBatchAndDefer(t *testing.T) {
	k := New(1)
	var got []int
	atBatch(k, []Time{time.Second, 3 * time.Second}, func(i int) { got = append(got, i) })
	k.RunUntil(2 * time.Second)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v, want [0]", got)
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now() = %v", k.Now())
	}
	k.Run()
	if len(got) != 2 {
		t.Fatalf("remaining batch entry did not run: %v", got)
	}
}

// Determinism must hold across the mixed queue sources: the same seed and
// schedule produce the same execution order regardless of which internal
// queue each event lives in.
func TestDeterminismMixedSources(t *testing.T) {
	run := func() []int {
		k := New(9)
		var got []int
		times := make([]Time, 50)
		for i := range times {
			times[i] = time.Duration(i/2) * time.Millisecond
		}
		atBatch(k, times, func(i int) { got = append(got, 1000+i) })
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration(k.Rand().Intn(25)) * time.Millisecond
			k.AfterFree(d, func() { got = append(got, 2000+i) })
		}
		k.After(0, func() { k.Defer(func() { got = append(got, 3000) }) })
		k.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestScheduleReArm(t *testing.T) {
	// One event object re-armed across firings: the recurring-timer pattern
	// the simnet transfer pool uses (serialize stage, then latency stage).
	k := New(1)
	var fired []Time
	var e *Event
	e = k.NewEvent(func() {
		fired = append(fired, k.Now())
		if len(fired) < 3 {
			k.Schedule(e, k.Now()+10)
		}
	})
	k.Schedule(e, 5)
	k.Run()
	if len(fired) != 3 || fired[0] != 5 || fired[1] != 15 || fired[2] != 25 {
		t.Fatalf("fired = %v, want [5 15 25]", fired)
	}
}

func TestScheduleMovesQueuedEvent(t *testing.T) {
	// Scheduling an already-queued event moves it instead of duplicating.
	k := New(1)
	n := 0
	e := k.NewEvent(func() { n++ })
	k.Schedule(e, 100)
	k.Schedule(e, 10) // earlier
	k.Schedule(e, 50) // later again
	fired := Time(-1)
	k.At(50, func() {})
	k.Run()
	_ = fired
	if n != 1 {
		t.Fatalf("event fired %d times, want 1", n)
	}
}

func TestScheduleResurrectsCancelledEvent(t *testing.T) {
	k := New(1)
	n := 0
	e := k.NewEvent(func() { n++ })
	k.Schedule(e, 10)
	e.Cancel()
	k.Schedule(e, 20)
	k.Run()
	if n != 1 {
		t.Fatalf("event fired %d times, want 1 (cancel then re-arm)", n)
	}
	if k.Now() != 20 {
		t.Fatalf("fired at %v, want 20", k.Now())
	}
}

func TestScheduleOrderingAgainstOtherEvents(t *testing.T) {
	// Re-armed events get fresh sequence numbers: at an equal timestamp
	// they run after events scheduled earlier, preserving global FIFO.
	k := New(1)
	var order []string
	e := k.NewEvent(func() { order = append(order, "rearmed") })
	k.At(10, func() { order = append(order, "first") })
	k.Schedule(e, 10)
	k.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "rearmed" {
		t.Fatalf("order = %v", order)
	}
}

func TestScheduleEventPastPanics(t *testing.T) {
	k := New(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule in the past must panic")
			}
		}()
		e := k.NewEvent(func() {})
		k.Schedule(e, 5)
	})
	k.Run()
}

func TestScheduleForeignKernelPanics(t *testing.T) {
	k1 := New(1)
	k2 := New(2)
	e := k1.NewEvent(func() {})
	defer func() {
		if recover() == nil {
			t.Error("Schedule on a foreign kernel's event must panic")
		}
	}()
	k2.Schedule(e, 10)
}

func TestPrecedes(t *testing.T) {
	// Precedes(e) answers, for code running at the instant e is (or would be)
	// due: has an event with e's sequence number still to run? It must agree
	// with the order the kernel actually fires same-instant events in, from
	// every queue, and between events.
	k := New(1)
	e := k.NewEvent(func() {})
	if k.Schedule(e, 10); !k.Precedes(e) {
		t.Error("before the first event everything armed is still to run")
	}
	var early, late, deferred, batch, proc bool
	k.At(10, func() { early = k.Precedes(e) }) // armed after e: runs after it
	k.Schedule(e, 10)                          // re-armed: now e is the younger
	k.At(5, func() {
		k.At(10, func() { late = k.Precedes(e) })
		atBatch(k, []Time{10}, func(int) { batch = k.Precedes(e) })
	})
	k.At(10, func() {
		k.Defer(func() { deferred = k.Precedes(e) })
		k.Go("p", func(p *Proc) { proc = k.Precedes(e) })
	})
	k.Run()
	if !early {
		t.Error("an event armed before e must precede it")
	}
	if late || batch || deferred || proc {
		t.Errorf("code ordered after e claims to precede it: At %v, AtBatch %v, Defer %v, proc %v", late, batch, deferred, proc)
	}

	// RunUntil moves the clock past the last event: everything armed for an
	// instant up to there has run, whatever its sequence number.
	k = New(1)
	k.At(3, func() {})
	e = k.NewEvent(func() {})
	k.Schedule(e, 7)
	e.Cancel() // as simnet cancels a solo's delivery; its arming still orders it
	if k.RunUntil(7); k.Precedes(e) {
		t.Error("after RunUntil(7) an event armed for 7 has run")
	}
	if k.Schedule(e, 7); !k.Precedes(e) {
		t.Error("an event armed after the clock stopped is still to run")
	}
}

func TestChanRingReusesCapacity(t *testing.T) {
	// Steady-state send/recv cycles must not grow the channel's buffers.
	k := New(1)
	c := NewChan[int](k)
	sum := 0
	k.Go("recv", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			sum += v
		}
	})
	for i := 1; i <= 100; i++ {
		i := i
		k.At(Time(i), func() { c.Send(i) })
	}
	k.At(200, func() { c.Close() })
	k.Run()
	if sum != 5050 {
		t.Fatalf("sum = %d, want 5050", sum)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after drain", c.Len())
	}
}
