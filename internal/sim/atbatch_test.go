package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestAtBatchMatchesAtLoop is the pending-batch list's order oracle. A batch
// draws n consecutive sequence numbers, so it must fire exactly like the same
// schedule issued as n At calls. Each seed generates one program —
// overlapping batches, bursts of dozens of overlapping batches, batches
// staged from inside a batch callback, and At/AfterFree/Defer/Schedule/Cancel
// — and runs it twice: through AtBatch, and with every AtBatch replaced by an
// At loop. Both are driven by the same Run/RunUntil/RunUntilBefore calls at
// random bounds, and their logs — every firing with its clock, Pending and a
// Precedes answer, and the clock, Pending, Steps and Scheduled after each
// drive call — must be identical.
func TestAtBatchMatchesAtLoop(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		batched, pending := orderProgram(seed, false)
		looped, loopPending := orderProgram(seed, true)
		if loopPending != 0 {
			t.Fatalf("seed %d: the At-loop form left %d batches pending", seed, loopPending)
		}
		if pending < 2 {
			t.Fatalf("seed %d: at most %d batch pending at once, want overlapping batches", seed, pending)
		}
		for i := range min(len(batched), len(looped)) {
			if batched[i] != looped[i] {
				t.Fatalf("seed %d: logs diverge at line %d:\n  AtBatch: %s\n  At loop: %s", seed, i, batched[i], looped[i])
			}
		}
		if len(batched) != len(looped) {
			t.Fatalf("seed %d: AtBatch logged %d lines, the At loop %d", seed, len(batched), len(looped))
		}
	}
}

// orderProgram runs seed's random program, staging batches with AtBatch or,
// when loop is set, as At loops. It returns the log and the peak number of
// batches pending at once.
func orderProgram(seed int64, loop bool) ([]string, int) {
	rng := rand.New(rand.NewSource(seed))
	k := New(seed)
	var (
		log     []string
		handles []*Event
		nextID  int
		budget  = 600 // fire-time effects left, so nested staging terminates
		fire    func(id int)
	)
	batch := func(times []Time) {
		ids := nextID
		nextID += len(times)
		fn := func(i int) { fire(ids + i) }
		if !loop {
			atBatch(k, times, fn)
			return
		}
		for i, t := range times {
			i := i
			k.At(t, func() { fn(i) })
		}
	}
	// schedule draws a monotone schedule of n entries from start on a 250 µs
	// grid, so entries and drive bounds tie often.
	schedule := func(start Time, n int) []Time {
		times := make([]Time, n)
		for i := range times {
			if rng.Intn(3) != 0 {
				start += Time(rng.Intn(8)) * 250 * time.Microsecond
			}
			times[i] = start
		}
		return times
	}
	ahead := func() Time { return k.Now() + Time(rng.Intn(40))*250*time.Microsecond }
	handle := func() *Event {
		e := k.NewEvent(nil)
		id := nextID
		nextID++
		e.fn = func() { fire(id) }
		handles = append(handles, e)
		return e
	}
	// op performs one random scheduling operation; top-level ops and
	// fire-time effects draw from the same set.
	op := func() {
		switch rng.Intn(9) {
		case 0:
			id := nextID
			nextID++
			handles = append(handles, k.At(ahead(), func() { fire(id) }))
		case 1:
			var e *Event
			if len(handles) > 0 && rng.Intn(2) == 0 {
				e = handles[rng.Intn(len(handles))] // move, re-arm or resurrect
			} else {
				e = handle()
			}
			k.Schedule(e, ahead())
		case 2:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 3:
			id := nextID
			nextID++
			k.AfterFree(ahead()-k.Now(), func() { fire(id) })
		case 4:
			id := nextID
			nextID++
			k.Defer(func() { fire(id) })
		default:
			batch(schedule(ahead(), 1+rng.Intn(12)))
		}
	}
	fire = func(id int) {
		line := fmt.Sprintf("fire %d now=%v pending=%d", id, k.Now(), k.Pending())
		if len(handles) > 0 {
			line += fmt.Sprintf(" precedes=%v", k.Precedes(handles[rng.Intn(len(handles))]))
		}
		log = append(log, line)
		if budget > 0 && rng.Intn(4) == 0 {
			budget--
			op()
		}
	}
	drive := func() {
		bound := ahead()
		switch rng.Intn(5) {
		case 0:
			k.Run()
		case 1, 2:
			k.RunUntil(bound)
		default:
			k.RunUntilBefore(bound)
		}
		s := k.Stats()
		log = append(log, fmt.Sprintf("drive now=%v pending=%d steps=%d scheduled=%d",
			k.Now(), s.Pending, s.Events, s.Scheduled))
	}

	for step := 0; step < 300; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			// A burst of overlapping batches: each starts before every
			// earlier one ends.
			m := 32 + rng.Intn(8)
			for j := 0; j < m; j++ {
				start := k.Now() + Time(m-j)*250*time.Microsecond
				batch(append(schedule(start, 1+rng.Intn(3)), start+time.Second))
			}
		case r < 4:
			drive()
		default:
			op()
		}
	}
	k.Run()
	log = append(log, fmt.Sprintf("end now=%v pending=%d steps=%d", k.Now(), k.Pending(), k.Steps()))
	return log, k.Stats().LanesHighWater
}

// TestAtBatchMemoryIsConstant: staging a batch keeps O(1) state whatever its
// length — the kernel reads the schedule in place instead of copying it — so
// AtBatch allocates the same few bytes for a thousand entries as for a
// million. TotalAlloc counts the whole process, so each size keeps the least
// of three stagings: whatever else allocates meanwhile only ever adds.
func TestAtBatchMemoryIsConstant(t *testing.T) {
	staged := func(n int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			k := New(1)
			at := func(i int) Time { return Time(i) * time.Microsecond }
			fn := func(int) {}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k.AtBatch(n, at, fn)
			runtime.ReadMemStats(&after)
			if k.Pending() != n {
				t.Fatalf("Pending = %d after staging %d entries", k.Pending(), n)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := staged(1_000), staged(1_000_000)
	if small != large || large >= 4<<10 {
		t.Fatalf("AtBatch allocated %d B for 1k entries and %d B for 1M, want the same and under 4 KiB", small, large)
	}
}
