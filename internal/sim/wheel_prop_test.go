package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The property: the kernel must execute events in exactly the total order a
// reference heap would produce — (when, seq) ascending — no matter how the
// timer wheel shuffles storage internally (slot cascades, near-heap
// collection, in-place compaction, overflow promotion).
//
// The reference model mirrors the kernel's bookkeeping occurrence by
// occurrence: every At/Schedule/AtBatch records the real (when, seq) the
// kernel assigned (white-box, same package), re-arms and cancels remove the
// stale occurrence, and fire-time effects (an event scheduling a follow-up,
// an event cancelling another) are captured by the callbacks themselves and
// replayed when the reference pops the occurrence that caused them. After
// each run phase the reference drains in plain min-scan order; the two id
// sequences must match exactly.
//
// Alongside the order, every fired event and every op checks the wheel's
// occupancy bitmaps: bit s of level l is set exactly when slot s of level l
// holds entries. The sparse variant draws its timestamps at least 100 slots
// apart at every level and past the overflow horizon, so the sweep has to
// skip long empty runs by bitmap, cross level boundaries and take the
// overflow jump. The burst variant re-arms dozens of handles at a time into
// the few level-2 slots half a second ahead, so those slots pile up hundreds
// of mostly stale entries: they outgrow the arena, compact, empty, and take
// pooled arrays back, which the variant checks happened.

// propMode selects the timestamps and op mix of one property run.
type propMode int

const (
	propDense propMode = iota
	propSparse
	propBurst
)

// propOcc is one live reference occurrence.
type propOcc struct {
	when Time
	seq  uint64
	id   int
}

func TestWheelPropertyReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runWheelProperty(t, seed, propDense)
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("sparse/seed=%d", seed), func(t *testing.T) {
			runWheelProperty(t, seed, propSparse)
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("burst/seed=%d", seed), func(t *testing.T) {
			runWheelProperty(t, seed, propBurst)
		})
	}
}

// checkWheelOccupancy asserts the bitmap invariant on every slot.
func checkWheelOccupancy(t *testing.T, w *timerWheel) {
	t.Helper()
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			bit := w.occ[l][s>>6]&(1<<(uint(s)&63)) != 0
			if bit != (len(w.slots[l][s]) > 0) {
				t.Fatalf("level %d slot %d: occupancy bit %v, %d entries", l, s, bit, len(w.slots[l][s]))
			}
		}
	}
}

func runWheelProperty(t *testing.T, seed int64, mode propMode) {
	rng := rand.New(rand.NewSource(seed))
	k := New(seed)
	ops, runStep := 400, time.Second
	if mode == propBurst {
		ops, runStep = 1500, time.Millisecond
	}

	var (
		got, want []int
		ref       []propOcc
		nextID    int
		// handles are the cancellable / re-armable events; handleOcc maps
		// each to its current occurrence id (callbacks read it at fire time,
		// so a re-armed handle reports the id of the arm that fired).
		handles   []*Event
		handleOcc = map[*Event]int{}
		// chainAdd / chainCancel record fire-time effects by causing id:
		// the occurrence the callback scheduled, or the one it cancelled.
		chainAdd    = map[int]propOcc{}
		chainCancel = map[int]int{}
		// grown / tookPooled: some slot outgrew its arena piece; some pool
		// class shrank between two checks, so a grow took a pooled array.
		grown, tookPooled bool
		pooled            [len(k.wheel.pool)]int
	)

	// check asserts the wheel's invariants and notes what its storage did.
	check := func() {
		checkWheelOccupancy(t, &k.wheel)
		for l := range k.wheel.slots {
			for _, s := range k.wheel.slots[l] {
				grown = grown || cap(s) > wheelSlotCap
			}
		}
		for c, class := range k.wheel.pool {
			tookPooled = tookPooled || len(class) < pooled[c]
			pooled[c] = len(class)
		}
	}

	// fire records one executed occurrence; the wheel is between a pop and
	// the next probe here, so its invariants must hold.
	fire := func(id int) {
		got = append(got, id)
		check()
	}

	removeRef := func(id int) {
		for i := range ref {
			if ref[i].id == id {
				ref[i] = ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				return
			}
		}
	}

	// randWhen mixes the regimes the wheel stores differently: same-instant
	// ties, sub-tick offsets, level-0/1 spans, coarse-level spans, and
	// beyond-horizon times that must take the overflow heap and be promoted
	// back. Drawing offsets from a coarse grid manufactures (when) ties so
	// the seq tie-break is exercised constantly.
	randWhen := func() Time {
		base := k.now
		switch mode {
		case propBurst:
			// The three or four 67 ms level-2 slots half a second ahead, on a
			// millisecond grid.
			return base + 500*time.Millisecond + Time(rng.Intn(200))*time.Millisecond
		case propSparse:
			// 100..255 slots ahead at a random level (the top of that range
			// always crosses into the next level's slot), or past the horizon.
			gap := Time(100 + rng.Intn(156))
			if l := rng.Intn(wheelLevels + 1); l < wheelLevels {
				return base + gap<<uint(wheelShift+l*wheelBits)
			}
			return base + 15*24*time.Hour + gap*time.Hour
		}
		switch rng.Intn(12) {
		case 0, 1:
			return base // same instant as the clock
		case 2, 3:
			return base + Time(rng.Intn(4))<<wheelShift
		case 4, 5, 6:
			return base + Time(rng.Intn(500))*100*time.Microsecond
		case 7, 8:
			return base + Time(rng.Intn(1000))*10*time.Millisecond
		case 9:
			return base + Time(rng.Intn(100))*time.Minute
		case 10:
			return base + Time(rng.Intn(48))*time.Hour
		default:
			// Beyond the top level's ~13-day horizon: overflow heap.
			return base + 15*24*time.Hour + Time(rng.Intn(96))*time.Hour
		}
	}

	// replay drains the reference model up to and including limit, applying
	// each popped occurrence's recorded fire-time effects in order.
	replay := func(limit Time, strict bool) {
		for {
			min := -1
			for i := range ref {
				if ref[i].when > limit || (strict && ref[i].when == limit) {
					continue
				}
				if min < 0 || ref[i].when < ref[min].when ||
					(ref[i].when == ref[min].when && ref[i].seq < ref[min].seq) {
					min = i
				}
			}
			if min < 0 {
				return
			}
			occ := ref[min]
			ref[min] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			want = append(want, occ.id)
			if add, ok := chainAdd[occ.id]; ok {
				delete(chainAdd, occ.id)
				ref = append(ref, add)
			}
			if victim, ok := chainCancel[occ.id]; ok {
				delete(chainCancel, occ.id)
				removeRef(victim)
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1: // At: a cancellable one-shot
			id := nextID
			nextID++
			var e *Event
			e = k.At(randWhen(), func() { fire(handleOcc[e]) })
			handles = append(handles, e)
			handleOcc[e] = id
			ref = append(ref, propOcc{when: e.when, seq: e.seq, id: id})
		case 2, 3: // Schedule: arm a fresh NewEvent, or re-arm / resurrect
			arms := 1
			if mode == propBurst {
				arms = 1 + rng.Intn(48)
			}
			for range arms {
				var e *Event
				if len(handles) > 0 && rng.Intn(2) == 0 || mode == propBurst && len(handles) >= 32 {
					e = handles[rng.Intn(len(handles))]
				} else {
					ne := k.NewEvent(nil)
					ne.fn = func() { fire(handleOcc[ne]) }
					handles = append(handles, ne)
					e = ne
				}
				if old, ok := handleOcc[e]; ok {
					removeRef(old) // stale arm, if still queued
				}
				k.Schedule(e, randWhen())
				id := nextID
				nextID++
				handleOcc[e] = id
				ref = append(ref, propOcc{when: e.when, seq: e.seq, id: id})
			}
		case 4: // Cancel a random handle (may be a no-op if already fired)
			if len(handles) == 0 {
				continue
			}
			e := handles[rng.Intn(len(handles))]
			if occ, ok := handleOcc[e]; ok && e.Cancel() {
				removeRef(occ)
			}
		case 5, 6: // AtBatch: a monotone arrival schedule with repeated times
			n := 1 + rng.Intn(24)
			times := make([]Time, n)
			tt := k.now
			for i := range times {
				if rng.Intn(3) != 0 {
					tt += Time(rng.Intn(40)) * 250 * time.Microsecond
				}
				times[i] = tt
			}
			ids := make([]int, n)
			for i := range ids {
				ids[i] = nextID
				nextID++
			}
			seq0 := k.seq
			atBatch(k, times, func(i int) { fire(ids[i]) })
			for i := range times {
				ref = append(ref, propOcc{when: times[i], seq: seq0 + uint64(i), id: ids[i]})
			}
		case 7: // chain: an event that schedules a follow-up when it fires
			id := nextID
			nextID++
			fired := func(nid int) func() {
				return func() { fire(nid) }
			}
			k2, rng2 := k, rng
			e := k.At(randWhen(), nil)
			e.fn = func() {
				fire(id)
				nid := nextID
				nextID++
				delay := Time(rng2.Intn(2000)) * 50 * time.Microsecond
				ne := k2.At(k2.now+delay, fired(nid))
				chainAdd[id] = propOcc{when: ne.when, seq: ne.seq, id: nid}
			}
			ref = append(ref, propOcc{when: e.when, seq: e.seq, id: id})
		case 8: // canceller: an event that cancels another when it fires
			if len(handles) == 0 {
				continue
			}
			target := handles[rng.Intn(len(handles))]
			id := nextID
			nextID++
			e := k.At(randWhen(), nil)
			e.fn = func() {
				fire(id)
				if occ, ok := handleOcc[target]; ok && target.Cancel() {
					chainCancel[id] = occ
				}
			}
			ref = append(ref, propOcc{when: e.when, seq: e.seq, id: id})
		case 9: // run phase: execute a window, then replay the reference
			T := k.now + Time(rng.Intn(60))*runStep
			if rng.Intn(2) == 0 {
				k.RunUntil(T)
				replay(T, false)
			} else {
				k.RunUntilBefore(T)
				replay(T, true)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: fired %d events, reference fired %d", op, len(got), len(want))
			}
		}
		check()
	}

	// Drain everything, overflow entries included.
	k.Run()
	replay(Time(1<<62), false)

	if len(ref) != 0 {
		t.Fatalf("reference still holds %d occurrences after full drain", len(ref))
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dequeue order diverges from reference at position %d: got id %d, want id %d",
				i, got[i], want[i])
		}
	}
	if mode == propBurst && (!grown || !tookPooled) {
		t.Fatalf("burst run never exercised pooled slot arrays: a slot outgrew the arena %v, a grow took a pooled array %v",
			grown, tookPooled)
	}
}
